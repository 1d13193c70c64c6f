/* The benchmark's two OS hooks.

   e2ebench_pin_one_cpu pins the calling thread, and every process it
   starts afterwards, to one CPU: the highest-numbered one it may run
   on.  Returns that CPU, or -1 where affinity cannot be set (non-Linux,
   or refused).

   e2ebench_cpu_ns returns the CPU time, in nanoseconds, that process
   [pid] (0: this one) has run so far, all its threads together, or -1
   when it cannot be read.  On Linux this is the scheduler's own
   account: time the hypervisor gave to other guests (steal) and time
   other processes held the CPU are not in it. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>
#include <sys/types.h>
#include <time.h>
#ifdef __linux__
#include <sched.h>
#endif

value e2ebench_pin_one_cpu(value unit)
{
  (void)unit;
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--) {
    if (CPU_ISSET(cpu, &set)) {
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      return Val_int(sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1);
    }
  }
#endif
  return Val_int(-1);
}

value e2ebench_cpu_ns(value pid)
{
  clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
  struct timespec ts;
  if (Int_val(pid) != 0 && clock_getcpuclockid((pid_t)Int_val(pid), &clock) != 0)
    return Val_long(-1);
  if (clock_gettime(clock, &ts) != 0) return Val_long(-1);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
