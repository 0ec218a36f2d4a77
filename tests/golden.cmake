# Runs `mcrtl <args…>` and compares its stdout byte for byte with a golden
# file:
#   cmake -DMCRTL=<mcrtl> "-DARGS=<args…>" -DGOLDEN=<file> -P golden.cmake
# ARGS is one space-separated string (e.g. "table hal", "experiment E5").
# The output is kept under the golden file's name in the working directory.
separate_arguments(args UNIX_COMMAND "${ARGS}")
get_filename_component(actual ${GOLDEN} NAME)
execute_process(COMMAND ${MCRTL} ${args}
                OUTPUT_FILE ${actual} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mcrtl ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${actual} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
  file(READ ${actual} text)
  message(FATAL_ERROR
    "mcrtl ${ARGS} differs from ${GOLDEN} (diff it against "
    "${CMAKE_CURRENT_BINARY_DIR}/${actual}):\n${text}")
endif()
