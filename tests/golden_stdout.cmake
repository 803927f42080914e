# Golden-stdout check for one paper-figure bench (a ctest, see the root
# CMakeLists.txt): run BIN, optionally at HIDA_BENCH_THREADS=THREADS, and
# require its stdout to equal the file GOLDEN byte for byte. With
# HIDA_UPDATE_GOLDEN=1 in the environment the run rewrites GOLDEN instead.
#
#   cmake -DBIN=<bench> -DGOLDEN=<file> [-DTHREADS=<n>] -P golden_stdout.cmake

if(DEFINED THREADS)
  set(ENV{HIDA_BENCH_THREADS} "${THREADS}")
endif()
execute_process(COMMAND "${BIN}"
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${status}:\n${errors}")
endif()

if(DEFINED ENV{HIDA_UPDATE_GOLDEN})
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "rewrote ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR
          "missing golden file ${GOLDEN} (generate with HIDA_UPDATE_GOLDEN=1)")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "${BIN} stdout differs from ${GOLDEN}; if the change is intended, "
          "regenerate with HIDA_UPDATE_GOLDEN=1 and review the diff.\n"
          "--- expected\n${expected}--- actual\n${actual}")
endif()
