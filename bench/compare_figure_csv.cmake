# Runs one figure or ablation bench at its default scale into OUT_DIR and
# requires its CSV to equal the committed one byte for byte, except for the
# column named IGNORE_COLUMN (optional; a timing column such as fig13's
# avg_cpu_ms), which is dropped from both files before they are compared.
#
#   cmake -DBENCH=<bench binary> -DNAME=<csv name without .csv>
#         -DEXPECTED_DIR=<bench_results dir> -DOUT_DIR=<work dir>
#         [-DIGNORE_COLUMN=<header name>] -P bench/compare_figure_csv.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
execute_process(
  COMMAND "${BENCH}" --output_dir=${OUT_DIR}
  RESULT_VARIABLE result
  OUTPUT_QUIET)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with '${result}'")
endif()

# Reads a CSV and, when IGNORE_COLUMN is set, removes that column from every
# row. The figure CSVs hold numbers and plain names only (no quoting, no ';').
function(read_csv path out_var)
  file(READ "${path}" content)
  if(IGNORE_COLUMN)
    string(REGEX REPLACE "\n$" "" content "${content}")
    string(REPLACE "\n" ";" rows "${content}")
    list(GET rows 0 header)
    string(REPLACE "," ";" header "${header}")
    list(FIND header "${IGNORE_COLUMN}" index)
    if(index LESS 0)
      message(FATAL_ERROR "${path} has no column '${IGNORE_COLUMN}'")
    endif()
    set(content "")
    foreach(row IN LISTS rows)
      string(REPLACE "," ";" fields "${row}")
      list(REMOVE_AT fields ${index})
      list(JOIN fields "," row)
      string(APPEND content "${row}\n")
    endforeach()
  endif()
  set(${out_var} "${content}" PARENT_SCOPE)
endfunction()

read_csv("${EXPECTED_DIR}/${NAME}.csv" expected)
read_csv("${OUT_DIR}/${NAME}.csv" actual)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${OUT_DIR}/${NAME}.csv differs from "
                      "${EXPECTED_DIR}/${NAME}.csv")
endif()
