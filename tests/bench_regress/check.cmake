# Runs tools/bench_regress on two row files and checks both its exit status
# and its printed verdict:
#
#   cmake -DREGRESS=<bench_regress> -DBASE=<file> -DCURRENT=<file>
#         -DEXIT=<status> -DEXPECT=<regex> -P check.cmake
#
# EXPECT is matched against stdout and stderr together.
execute_process(COMMAND ${REGRESS} ${BASE} ${CURRENT}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "bench_regress exited ${status}, expected ${EXIT}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "bench_regress output does not match: ${EXPECT}")
endif()
