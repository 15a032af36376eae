# Runs BIN with one argument and fails unless it exits with EXPECT_RC: a
# crash (e.g. SIGABRT), a hang past 30 s, or any other exit code fails.
#
# Arguments (via -D):
#   BIN        full path of the executable
#   ARG        its single command-line argument
#   EXPECT_RC  the required exit code

execute_process(COMMAND ${BIN} ${ARG}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 30)
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "${BIN} ${ARG}: exit '${rc}', expected ${EXPECT_RC}\n${err}")
endif()
