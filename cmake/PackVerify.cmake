# Verifies one golden scenario pack end to end:
#
#   1. runs `lowsense_cli --pack=` (the suite runner's pack mode) under
#      each engine (event, slot) — exit 1 means a pinned digest or an
#      expectation failed under that engine, exit 2 a usage error;
#   2. regenerates the manifest under each engine and diffs it against
#      the checked-in golden *.manifest.jsonl with pack_diff.py —
#      manifests carry only engine-invariant fields, so any byte of drift
#      is a determinism or behavior regression.
#
# Arguments (via -D):
#   CLI        full path of the lowsense_cli executable
#   PACK       full path of the .pack file
#   GOLDEN     full path of the checked-in .manifest.jsonl
#   PACK_DIFF  full path of scripts/pack_diff.py
#   PYTHON     python3 executable
#   WORK_DIR   scratch directory for regenerated manifests

get_filename_component(PACK_NAME ${PACK} NAME_WE)
file(MAKE_DIRECTORY ${WORK_DIR})

foreach(engine event slot)
  set(candidate ${WORK_DIR}/${PACK_NAME}_${engine}.manifest.jsonl)
  execute_process(
    COMMAND ${CLI} --pack=${PACK} --engine=${engine} --manifest=${candidate}
    OUTPUT_QUIET
    RESULT_VARIABLE rc_run)
  if(NOT rc_run EQUAL 0)
    message(FATAL_ERROR
            "${PACK_NAME}: --engine=${engine} exited with ${rc_run} "
            "(1: digest or expectation failure, 2: usage error)")
  endif()

  execute_process(
    COMMAND ${PYTHON} ${PACK_DIFF} ${GOLDEN} ${candidate}
    RESULT_VARIABLE rc_diff)
  if(NOT rc_diff EQUAL 0)
    message(FATAL_ERROR
            "${PACK_NAME}: manifest drift under --engine=${engine} "
            "(${candidate} vs ${GOLDEN})")
  endif()
endforeach()
