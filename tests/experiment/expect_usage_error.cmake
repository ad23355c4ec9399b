# Runs PROGRAM with the space-separated ARGS and fails unless it exits
# with status 2 (the tools' usage error) after printing its usage text:
#
#   cmake -DPROGRAM=<exe> "-DARGS=<args>" -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${status}'\n${out}${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "no usage text on stderr:\n${err}")
endif()
