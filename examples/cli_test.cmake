# One command-line check of an example binary, run by ctest
# (examples/CMakeLists.txt):
#   cmake -DARGS=<exe|arg|...> -DEXIT_CODE=<n> [-DEXPECT=<text>]
#         -P cli_test.cmake
# ARGS separates the executable and its arguments with '|'. Fails unless the
# command exits with EXIT_CODE and, when EXPECT is given, its stderr
# contains EXPECT.
string(REPLACE "|" ";" command "${ARGS}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL EXIT_CODE)
  message(FATAL_ERROR "exit ${code}, expected ${EXIT_CODE}; stderr:\n${err}")
endif()
if(DEFINED EXPECT)
  string(FIND "${err}" "${EXPECT}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks \"${EXPECT}\":\n${err}")
  endif()
endif()
