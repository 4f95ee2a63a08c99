# End-to-end smoke for the flight-recorder trace tooling, run as a ctest:
#   1. run harvest_inspect --selftest, dumping its Chrome Trace Event JSON,
#   2. feed the dump to harvest_trace — the report must contain the
#      per-stage table and the critical path,
#   3. feed it the same dump with its newlines removed — the report must be
#      the same text, since the analyzer reads JSON, not lines,
#   4. reject garbage and a truncated dump with a nonzero exit.
# Driven by: cmake -DINSPECT=... -DTRACE=... -DWORK_DIR=... -P this_file
file(MAKE_DIRECTORY ${WORK_DIR})
set(CHROME ${WORK_DIR}/trace.json)
set(FLAT ${WORK_DIR}/trace_flat.json)

function(run outvar)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "command failed (${code}): ${ARGN}\n${out}\n${err}")
  endif()
  set(${outvar} "${out}" PARENT_SCOPE)
endfunction()

run(_ ${INSPECT} --selftest --trace ${CHROME})

run(report ${TRACE} ${CHROME})
foreach(want "per-stage aggregate timings" "critical path"
        "pipeline.scavenge")
  string(FIND "${report}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "harvest_trace report for ${CHROME} lacks '${want}':\n${report}")
  endif()
endforeach()

file(READ ${CHROME} dump)
string(REPLACE "\n" "" flat "${dump}")
file(WRITE ${FLAT} "${flat}")
run(flat_report ${TRACE} ${FLAT})
if(NOT flat_report STREQUAL report)
  message(FATAL_ERROR "harvest_trace report differs on the one-line dump:\n"
                      "${report}\n---- vs ----\n${flat_report}")
endif()

# Garbage and truncated input must be rejected, not crash or report
# nonsense.
file(WRITE ${WORK_DIR}/garbage.json "this is not a trace\n")
string(LENGTH "${dump}" dump_length)
math(EXPR half "${dump_length} / 2")
string(SUBSTRING "${dump}" 0 ${half} truncated)
file(WRITE ${WORK_DIR}/truncated.json "${truncated}")
foreach(bad garbage truncated)
  execute_process(COMMAND ${TRACE} ${WORK_DIR}/${bad}.json
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "harvest_trace exited ${code} on ${bad} input")
  endif()
endforeach()
