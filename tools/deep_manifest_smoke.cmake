# Hostile-input smoke, run as a ctest: harvest_inspect on a dataset
# directory whose MANIFEST.json is 1,000,000 '[' must exit 1 with a message
# naming the manifest — an error, not a stack overflow.
# Driven by: cmake -DINSPECT=... -DWORK_DIR=... -P this_file
file(MAKE_DIRECTORY ${WORK_DIR})
string(REPEAT "[" 1000000 deep)
file(WRITE ${WORK_DIR}/MANIFEST.json "${deep}")
execute_process(COMMAND ${INSPECT} ${WORK_DIR}
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "harvest_inspect exited '${code}' on a deep manifest:\n"
                      "${err}")
endif()
string(FIND "${err}" "MANIFEST.json" at)
if(at EQUAL -1)
  message(FATAL_ERROR "error does not name the manifest:\n${err}")
endif()
