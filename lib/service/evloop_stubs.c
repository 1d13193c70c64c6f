/* The poll(2) stub behind Service.Evloop.
 *
 * Used level-triggered: the OCaml daemon drains sockets to EAGAIN
 * anyway.  Event bits on the OCaml side are a tiny portable set:
 * 1 = readable (or error/hup — the subsequent read surfaces the
 * condition), 2 = writable.
 *
 * The stub releases the runtime lock around the blocking wait and
 * reports failures as Unix_error via uerror; EINTR is handled on the
 * OCaml side so signal delivery (e.g. the daemon's SIGTERM-to-self-pipe
 * handler) wakes the loop promptly. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#include <errno.h>
#include <poll.h>
#include <stdlib.h>

#define SFDD_EV_READ 1
#define SFDD_EV_WRITE 2

/* poll(fds, interest, revents_out, count, timeout_ms) -> ready count.
 * [fds] and [interest] are parallel int arrays of length >= count;
 * [revents_out] receives the portable event bits (0 = not ready). */
CAMLprim value sfdd_ev_poll(value vfds, value vinterest, value vrevents,
                            value vcount, value vtimeout)
{
  CAMLparam5(vfds, vinterest, vrevents, vcount, vtimeout);
  long count = Long_val(vcount);
  int timeout = Int_val(vtimeout);
  struct pollfd *pfds = NULL;
  int ret;
  long i;

  if (count < 0 || count > Wosize_val(vfds) || count > Wosize_val(vinterest)
      || count > Wosize_val(vrevents))
    caml_invalid_argument("sfdd_ev_poll: count out of range");
  if (count > 0) {
    pfds = (struct pollfd *)malloc((size_t)count * sizeof(struct pollfd));
    if (pfds == NULL) caml_raise_out_of_memory();
    for (i = 0; i < count; i++) {
      long bits = Long_val(Field(vinterest, i));
      pfds[i].fd = (int)Long_val(Field(vfds, i));
      pfds[i].events = 0;
      if (bits & SFDD_EV_READ) pfds[i].events |= POLLIN;
      if (bits & SFDD_EV_WRITE) pfds[i].events |= POLLOUT;
      pfds[i].revents = 0;
    }
  }

  caml_enter_blocking_section();
  ret = poll(pfds, (nfds_t)count, timeout);
  caml_leave_blocking_section();

  if (ret < 0) {
    int saved = errno;
    free(pfds);
    errno = saved;
    uerror("poll", Nothing);
  }
  for (i = 0; i < count; i++) {
    long bits = 0;
    short rev = pfds[i].revents;
    /* Error/hangup conditions surface as readability: the next read
     * returns 0 or the errno, which is the daemon's EOF/error path. */
    if (rev & (POLLIN | POLLERR | POLLHUP | POLLNVAL)) bits |= SFDD_EV_READ;
    if (rev & POLLOUT) bits |= SFDD_EV_WRITE;
    Store_field(vrevents, i, Val_long(bits));
  }
  free(pfds);
  CAMLreturn(Val_int(ret));
}
