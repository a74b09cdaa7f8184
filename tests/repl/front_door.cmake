# Runs the REPL binary once and checks how it ends.
#
#   cmake -DREPL=<binary> -DARGS=<args> -DINPUT=<stdin file>
#         -DEXPECT_RC=zero|nonzero -DEXPECT=<regex> -P front_door.cmake
#
# A crash (a signal) always fails: execute_process then reports a
# message instead of an exit code. EXPECT must match stdout + stderr.
separate_arguments(ARGS)
execute_process(COMMAND ${REPL} ${ARGS}
                INPUT_FILE ${INPUT}
                RESULT_VARIABLE RC
                OUTPUT_VARIABLE OUT
                ERROR_VARIABLE OUT)
if(NOT RC MATCHES "^[0-9]+$")
  message(FATAL_ERROR "repl ${ARGS} did not exit normally: ${RC}\n${OUT}")
endif()
if(EXPECT_RC STREQUAL "zero" AND NOT RC EQUAL 0)
  message(FATAL_ERROR "repl ${ARGS} exited ${RC}\n${OUT}")
endif()
if(EXPECT_RC STREQUAL "nonzero" AND RC EQUAL 0)
  message(FATAL_ERROR "repl ${ARGS} accepted a configuration it cannot run\n${OUT}")
endif()
if(NOT OUT MATCHES "${EXPECT}")
  message(FATAL_ERROR "repl ${ARGS} output does not match '${EXPECT}':\n${OUT}")
endif()
