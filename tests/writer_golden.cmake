# The sim's artifact writers are pinned byte for byte: the lossy run of
# explain_smoke.cmake must rewrite the four JSONL files of
# tests/golden/explain_run exactly (the goldens otherwise only feed the
# readers).
# Usage: cmake -DBIN=<decor> -DOUT=<scratch dir> -DGOLDEN=<golden dir>
#        -P writer_golden.cmake
if(NOT DEFINED BIN OR NOT DEFINED OUT OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "writer_golden.cmake needs -DBIN=, -DOUT= and -DGOLDEN=")
endif()
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
execute_process(
  COMMAND ${BIN} sim --scheme=grid --side=20 --points=200 --initial=8
          --k=1 --seed=11 --loss=0.3 --trace
          --trace-jsonl=${OUT}/trace.jsonl
          --timeline=0.5 --timeline-jsonl=${OUT}/timeline.jsonl
          --field=1 --field-jsonl=${OUT}/field.jsonl
          --audit-jsonl=${OUT}/audit.jsonl
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decor_cli sim failed (rc=${rc})")
endif()
foreach(name trace timeline field audit)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUT}/${name}.jsonl ${GOLDEN}/explain_run/${name}.jsonl
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}.jsonl differs from "
                        "${GOLDEN}/explain_run/${name}.jsonl")
  endif()
endforeach()
