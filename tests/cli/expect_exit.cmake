# Run a program and require one exact exit status (a signal-killed
# process fails, whatever the status it was expected to return).
#
#   cmake -DPROGRAM=<exe> -DARGS="<space-separated args>"
#         -DEXPECT=<status> -P expect_exit.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
    message(FATAL_ERROR
        "${PROGRAM} ${ARGS}: exit '${rc}', expected ${EXPECT}\n${err}")
endif()
