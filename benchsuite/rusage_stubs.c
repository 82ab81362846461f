/* Peak resident set sizes and the online core count, which OCaml's
   Unix library does not expose. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* ru_maxrss of this process, in KiB (Linux). */
value benchsuite_maxrss_self_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}

/* Wait for child [pid]: (exit code, or minus the signal number that
   ended it; the child's ru_maxrss in KiB). */
value benchsuite_wait4(value pid)
{
  CAMLparam1(pid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(pid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_int(WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

value benchsuite_nproc(value unit)
{
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  (void)unit;
  return Val_long(n < 1 ? 1 : n);
}
