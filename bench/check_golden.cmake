# Runs one figure bench and fails unless its stdout matches the
# checked-in golden output byte for byte. bench/CMakeLists.txt
# registers one such test per pinned figure under the `figures`
# label:
#
#   ctest -L figures
#
# The figures are deterministic, so any difference is a change in
# simulated behaviour. Review the diff; if the change is intended,
# re-record the golden file with `<bench> > bench/golden/<bench>.txt`
# and say so in the commit.

if(NOT BENCH OR NOT GOLDEN OR NOT OUT)
    message(FATAL_ERROR "check_golden.cmake needs -DBENCH=... "
                        "-DGOLDEN=... -DOUT=...")
endif()

execute_process(COMMAND ${BENCH} OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(differs)
    find_program(DIFF_TOOL diff)
    if(DIFF_TOOL)
        execute_process(COMMAND ${DIFF_TOOL} -u ${GOLDEN} ${OUT})
    endif()
    message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
