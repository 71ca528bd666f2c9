/* TCP_QUICKACK for the load generator's sockets (Linux). Re-armed after
   every read: the kernel clears it whenever it falls back to delayed
   acknowledgements. Elsewhere a no-op. */
#include <caml/mlvalues.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>

value perfbench_quickack(value fd)
{
#ifdef TCP_QUICKACK
  int one = 1;
  setsockopt(Int_val(fd), IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
#endif
  return Val_unit;
}
