# Replay a trace in which one VM id is live twice and pass only when the
# command exits nonzero (not by timeout) with a message that names the id
# and no source file. The trace is a `slackvm generate` file whose first row
# is repeated 1 s later, so both copies overlap in time.
#
#   cmake -DCLI=path/to/slackvm -DWORKDIR=dir -DSHARDS=8 -P cli_duplicate_id.cmake
file(MAKE_DIRECTORY "${WORKDIR}")
set(generated "${WORKDIR}/generated.csv")
set(trace "${WORKDIR}/duplicate_id.csv")
execute_process(
  COMMAND "${CLI}" generate --population 300 --seed 3 --out "${generated}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err
  TIMEOUT 30)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "slackvm generate failed (${rc}): ${err}")
endif()

# Native rows are id,vcpus,mem_mib,level,usage,arrival,departure.
file(STRINGS "${generated}" lines)
list(GET lines 0 header)
list(GET lines 1 first)
string(REPLACE "," ";" fields "${first}")
list(GET fields 0 id)
# Shift a decimal time by one second through its integer part (CMake math
# is integer-only); the fraction's digits are kept as written.
function(plus_one_second value out)
  if(NOT value MATCHES "^([0-9]+)(\\.[0-9]+)?$")
    message(FATAL_ERROR "unexpected time field '${value}'")
  endif()
  math(EXPR whole "${CMAKE_MATCH_1} + 1")
  set(${out} "${whole}${CMAKE_MATCH_2}" PARENT_SCOPE)
endfunction()
list(GET fields 5 arrival)
list(GET fields 6 departure)
plus_one_second("${arrival}" arrival)
plus_one_second("${departure}" departure)
list(REMOVE_AT fields 5 6)
list(APPEND fields "${arrival}" "${departure}")
string(REPLACE ";" "," repeated "${fields}")
list(INSERT lines 2 "${repeated}")
list(JOIN lines "\n" body)
file(WRITE "${trace}" "${body}\n")

execute_process(
  COMMAND "${CLI}" replay --trace "${trace}" --shards "${SHARDS}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err
  TIMEOUT 30)
if(NOT rc MATCHES "^[0-9]+$" OR rc EQUAL 0)
  message(FATAL_ERROR "duplicate id ${id}: expected a nonzero exit, got '${rc}': ${err}")
endif()
string(FIND "${err}" "VM id ${id} is already live" at)
if(at EQUAL -1)
  message(FATAL_ERROR "duplicate id ${id}: message does not name the id: ${err}")
endif()
if(err MATCHES "\\.(cpp|hpp|h|cc)[:\" ]|assertion failed")
  message(FATAL_ERROR "duplicate id ${id}: message names a source file: ${err}")
endif()
