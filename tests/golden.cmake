# Runs `mcrtl <args…>` and compares its stdout, or a file it writes, byte
# for byte with a golden file:
#   cmake -DMCRTL=<mcrtl> "-DARGS=<args…>" -DGOLDEN=<file> [-DOUTPUT=<file>]
#         -P golden.cmake
# ARGS is one space-separated string (e.g. "table hal", "experiment E5").
# Without OUTPUT the stdout is compared and kept under the golden file's
# name in the working directory. With OUTPUT, the file of that name that
# mcrtl writes (named in ARGS, e.g. by --csv) is compared instead; it is
# removed first, so a stale copy cannot pass.
separate_arguments(args UNIX_COMMAND "${ARGS}")
get_filename_component(actual ${GOLDEN} NAME)
set(stdout ${actual})
if(DEFINED OUTPUT)
  set(actual ${OUTPUT})
  set(stdout ${OUTPUT}.stdout)
  file(REMOVE ${actual})
endif()
execute_process(COMMAND ${MCRTL} ${args}
                OUTPUT_FILE ${stdout} RESULT_VARIABLE rc)
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
