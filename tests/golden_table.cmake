# Runs `mcrtl table <benchmark>` at its default flags and compares its stdout
# byte for byte with a golden file:
#   cmake -DMCRTL=<mcrtl> -DBENCHMARK=<name> -DGOLDEN=<file> -P golden_table.cmake
# The output is kept as <benchmark>.table.txt in the working directory.
set(actual ${BENCHMARK}.table.txt)
execute_process(COMMAND ${MCRTL} table ${BENCHMARK}
                OUTPUT_FILE ${actual} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mcrtl table ${BENCHMARK} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${actual} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
  file(READ ${actual} text)
  message(FATAL_ERROR
    "mcrtl table ${BENCHMARK} differs from ${GOLDEN} (diff it against "
    "${CMAKE_CURRENT_BINARY_DIR}/${actual}):\n${text}")
endif()
