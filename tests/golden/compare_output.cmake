# Run a program and byte-compare the file it produced against a
# committed golden copy.
#
#   cmake -DPROGRAM=<exe> -DARGS="<space-separated args>"
#         -DACTUAL=<produced file> -DGOLDEN=<golden file>
#         [-DCAPTURE_STDOUT=ON] -P compare_output.cmake
#
# With CAPTURE_STDOUT the program's stdout is written to ACTUAL;
# otherwise the program is expected to write ACTUAL itself (ARGS names
# it). Regenerating a golden file is a data change: copy ACTUAL over
# it and record in CHANGES.md why the output moved.

separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE "${ACTUAL}")
if(CAPTURE_STDOUT)
    execute_process(COMMAND "${PROGRAM}" ${args}
        OUTPUT_FILE "${ACTUAL}" RESULT_VARIABLE rc)
else()
    execute_process(COMMAND "${PROGRAM}" ${args} RESULT_VARIABLE rc)
endif()
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${PROGRAM} exited with '${rc}'")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${ACTUAL}" "${GOLDEN}" RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR
        "${ACTUAL} differs from the golden copy ${GOLDEN}")
endif()
