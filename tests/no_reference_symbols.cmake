# Fail if the product binary links any differential reference or deleted
# module: the references live in tests/reference/ (slackvm_reference),
# which only tests and benches link. The control-plane references are also
# checked under their former product names, so moving one back into
# Rebalancer or sim:: fails too.
#
#   cmake -DNM=nm -DBINARY=path/to/slackvm -P no_reference_symbols.cmake
execute_process(
  COMMAND "${NM}" -C "${BINARY}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE symbols
  ERROR_VARIABLE err
  TIMEOUT 30)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NM} -C ${BINARY} failed (${rc}): ${err}")
endif()
# A stripped binary would pass vacuously: require a symbol the product
# certainly links.
string(FIND "${symbols}" "slackvm::workload::TraceReader::" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BINARY} has no readable symbols (stripped?)")
endif()
foreach(forbidden "slackvm::reference" "local::naive" "Trace::read_csv"
                  "PinDriver" "NumaMemoryMap" "Rebalancer::plan_naive"
                  "Rebalancer::plan_interference_naive" "sim::sample_host_usage")
  string(FIND "${symbols}" "${forbidden}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "${BINARY} links reference code: found '${forbidden}'")
  endif()
endforeach()
