# Runs one command-line tool and checks both its exit status and its
# printed output:
#
#   cmake -DEXIT=<status> -DEXPECT=<regex> -P check_tool.cmake -- <command...>
#
# Everything after `--` is the command. EXPECT is matched against stdout and
# stderr together.
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "check_tool.cmake: no command after --")
endif()
list(GET command 0 tool)
get_filename_component(tool "${tool}" NAME)

execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "${tool} exited ${status}, expected ${EXIT}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "${tool} output does not match: ${EXPECT}")
endif()
