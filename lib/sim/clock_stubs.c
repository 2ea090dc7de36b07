/* Monotonic clock for Kernel.now_ns: CLOCK_MONOTONIC never steps backwards,
   unlike the adjustable wall clock behind Unix.gettimeofday. */
#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

int64_t splice_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

value splice_now_ns_byte(value unit)
{
  return caml_copy_int64(splice_now_ns(unit));
}
