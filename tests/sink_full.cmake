# A JSONL sink whose writes fail (a full disk) must fail the run: exit
# non-zero with one stderr line naming the path, instead of printing a
# normal result over a truncated artifact.
# Usage: cmake -DBIN=<decor> -P sink_full.cmake
if(NOT EXISTS /dev/full)
  message("SKIPPED: /dev/full is missing")
  return()
endif()
foreach(sink trace-jsonl timeline-jsonl audit-jsonl field-jsonl)
  execute_process(
    COMMAND ${BIN} sim --scheme=voronoi --side=20 --points=100 --initial=5
            --seed=2 --timeline=1 --field=1 --${sink}=/dev/full
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "--${sink}=/dev/full exited 0:\n${out}")
  endif()
  string(FIND "${err}" "\n" first_newline)
  string(LENGTH "${err}" err_len)
  math(EXPR last "${err_len} - 1")
  if(NOT first_newline EQUAL last)
    message(FATAL_ERROR "--${sink}: expected a one-line error, got:\n${err}")
  endif()
  string(FIND "${err}" "/dev/full" named)
  if(named EQUAL -1)
    message(FATAL_ERROR "--${sink}: error does not name the path:\n${err}")
  endif()
endforeach()
# The offline engines stream --field-jsonl through the same sink.
execute_process(
  COMMAND ${BIN} deploy --scheme=grid --side=20 --points=100 --initial=5
          --k=1 --seed=2 --field-jsonl=/dev/full
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "^error: [^\n]*/dev/full[^\n]*\n$")
  message(FATAL_ERROR "deploy --field-jsonl=/dev/full: rc=${rc}\n${err}")
endif()
