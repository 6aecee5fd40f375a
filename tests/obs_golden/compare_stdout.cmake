# Runs `hignn_obs analyze` on a pinned event-log fixture and fails
# unless its stdout matches the golden byte for byte.
#
#   cmake -DHIGNN_OBS_BIN=<path> -DGOLDEN_DIR=<dir> -DEVENTS=<file>
#         -DGOLDEN=<file> -P compare_stdout.cmake
#
# The fixture is passed by a path relative to GOLDEN_DIR so the
# "from <path>" header line is stable across checkouts.
execute_process(
  COMMAND ${HIGNN_OBS_BIN} analyze --events ${EVENTS}
  WORKING_DIRECTORY ${GOLDEN_DIR}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "hignn_obs exited with ${exit_code}")
endif()
file(READ ${GOLDEN_DIR}/${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
    "hignn_obs output differs from ${GOLDEN}:\n${actual}")
endif()
