# Run `slackvm replay --trace missing.csv FLAG VALUE` and pass only when the
# command exits nonzero (not by timeout) with a message naming FLAG. The
# trace is never opened: parsing the flags must already fail.
#
#   cmake -DCLI=path/to/slackvm -DFLAG=--shards -DVALUE=-3 -P cli_reject.cmake
execute_process(
  COMMAND "${CLI}" replay --trace missing.csv "${FLAG}" "${VALUE}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err
  TIMEOUT 5)
if(NOT rc MATCHES "^[0-9]+$" OR rc EQUAL 0)
  message(FATAL_ERROR "${FLAG} ${VALUE}: expected a nonzero exit, got '${rc}'")
endif()
string(FIND "${err}" "slackvm: ${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${FLAG} ${VALUE}: message does not name the flag: ${err}")
endif()
