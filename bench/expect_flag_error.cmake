# Runs a bench with a malformed integer flag and requires exit code 1 and
# the parser's message on stderr, so no bench fails silently on a bad flag.
#
#   cmake -DBENCH=<path to a bench binary> -P bench/expect_flag_error.cmake
execute_process(
  COMMAND "${BENCH}" --users=abc
  RESULT_VARIABLE result
  OUTPUT_QUIET
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 1)
  message(FATAL_ERROR "expected exit code 1, got '${result}'")
endif()
if(NOT stderr MATCHES "bad value for --users")
  message(FATAL_ERROR "stderr lacks the parse error: '${stderr}'")
endif()
