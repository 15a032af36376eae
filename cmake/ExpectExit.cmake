# Runs BIN with the given arguments and fails unless it exits with
# EXPECT_RC: a crash (e.g. SIGABRT), a hang past 30 s, or any other exit
# code fails.
#
# Arguments (via -D):
#   BIN        full path of the executable
#   ARGS       its command-line arguments (semicolon-separated)
#   EXPECT_RC  the required exit code

execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 30)
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit '${rc}', expected ${EXPECT_RC}\n${err}")
endif()
