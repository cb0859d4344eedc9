/* CPU affinity of one thread, as a bit mask of the first 62 CPUs. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value bench_getaffinity(value tid)
{
  cpu_set_t s;
  long mask = 0;
  CPU_ZERO(&s);
  if (sched_getaffinity(Int_val(tid), sizeof s, &s) != 0) return Val_long(0);
  for (int c = 0; c < 62; c++)
    if (CPU_ISSET(c, &s)) mask |= 1L << c;
  return Val_long(mask);
}

value bench_setaffinity(value tid, value mask)
{
  cpu_set_t s;
  long m = Long_val(mask);
  CPU_ZERO(&s);
  for (int c = 0; c < 62; c++)
    if ((m >> c) & 1) CPU_SET(c, &s);
  return Val_bool(sched_setaffinity(Int_val(tid), sizeof s, &s) == 0);
}
