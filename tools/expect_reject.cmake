# ctest helper: runs EXE with ARGS (one space-separated string) and passes
# only when the command exits non-zero, prints nothing on stdout (no
# benchmark output) and names the problem on stderr (regex EXPECT).
#
#   cmake -DEXE=path -DARGS="--flag value" -DEXPECT=regex -P expect_reject.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit status, got 0")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "expected no stdout, got:\n${out}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
