# Runs bench_shard_scaling with its JSON summary pointed into a directory
# that does not exist and requires exit code 1 and the failure on stderr,
# so no bench reports success without its BENCH_*.json artifact.
#
#   cmake -DBENCH=<bench_shard_scaling> -DWORK_DIR=<work dir>
#         -P bench/expect_json_error.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
set(ENV{NELA_BENCH_SHARD_JSON} "${WORK_DIR}/no_such_dir/BENCH_shard.json")
execute_process(
  COMMAND "${BENCH}" --users=600 --requests=60 --output_dir=${WORK_DIR}
  RESULT_VARIABLE result
  OUTPUT_QUIET
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 1)
  message(FATAL_ERROR "expected exit code 1, got '${result}'")
endif()
if(NOT stderr MATCHES "json not written")
  message(FATAL_ERROR "stderr lacks the write failure: '${stderr}'")
endif()
