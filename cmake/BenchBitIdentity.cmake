# Runs a suite bench twice — --threads=1 and --threads=N — and fails
# unless stdout is byte-identical. The suite guarantees this (replicates
# land in seed order; no timing in text output), so any diff is a
# determinism regression in the harness or the engine.
#
# Arguments (via -D):
#   BENCH      full path of the bench executable
#   BENCH_ARGS semicolon-separated extra args (tiny smoke config)
#   THREADS    parallel thread count to compare against (default 8)
#   WORK_DIR   scratch directory for the two captures

if(NOT DEFINED THREADS)
  set(THREADS 8)
endif()

get_filename_component(BENCH_NAME ${BENCH} NAME_WE)
set(serial_out ${WORK_DIR}/${BENCH_NAME}_threads1.txt)
set(parallel_out ${WORK_DIR}/${BENCH_NAME}_threads${THREADS}.txt)

execute_process(
  COMMAND ${BENCH} ${BENCH_ARGS} --threads=1
  OUTPUT_FILE ${serial_out}
  RESULT_VARIABLE rc_serial)
if(NOT rc_serial EQUAL 0)
  message(FATAL_ERROR "${BENCH_NAME} --threads=1 exited with ${rc_serial}")
endif()

execute_process(
  COMMAND ${BENCH} ${BENCH_ARGS} --threads=${THREADS}
  OUTPUT_FILE ${parallel_out}
  RESULT_VARIABLE rc_parallel)
if(NOT rc_parallel EQUAL 0)
  message(FATAL_ERROR "${BENCH_NAME} --threads=${THREADS} exited with ${rc_parallel}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${serial_out} ${parallel_out}
  RESULT_VARIABLE rc_compare)
if(NOT rc_compare EQUAL 0)
  message(FATAL_ERROR
          "${BENCH_NAME}: --threads=1 vs --threads=${THREADS} stdout differs "
          "(${serial_out} vs ${parallel_out})")
endif()
