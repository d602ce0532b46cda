/* Native engine support: shared-memory arena, guarded worker child, and
   W^X code execution.  The parent (OCaml) writes trampoline bytes and
   test-case lanes through its read-write view of a MAP_SHARED anonymous
   mapping; the forked worker child executes the code region through its
   own PROT_READ|PROT_EXEC view of the same pages (per-process W^X), with
   signal handlers translating hardware faults into result records rather
   than killing the run.  The child is pure C after fork — no malloc, no
   stdio, no OCaml runtime — so forking from a multi-domain OCaml 5
   program is safe.  See lib/sandbox/native.ml for the trampoline ABI. */

#define _GNU_SOURCE
#include <caml/alloc.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

#include <errno.h>
#include <poll.h>
#include <setjmp.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#ifndef MAP_FIXED_NOREPLACE
#define MAP_FIXED_NOREPLACE 0x100000
#endif

/* ----- layout constants (mirrored in native.ml) ----- */

#define STATE_ADDR 0xF0000UL /* child-private state page */
#define STATE_SIZE 4096UL
#define CODE_MAX (256 * 1024)
#define LANE_SZ 392  /* GP 16*8 @0, XMM 16*16 @0x80, FLAGS u64 @0x180 */
#define RES_SZ 416   /* u32 status, u32 code, u64 ea, u64 rip_off, lane record */

/* state-page offsets used by the child C side */
#define ST_FCODE 0x1A0
#define ST_FEA 0x1A8
#define ST_GP_OUT 0x200
#define ST_XMM_OUT 0x280
#define ST_FLAGS_OUT 0x380

/* result-record status values */
#define RS_FINISHED 0
#define RS_GUARD 1
#define RS_HW 2

/* request flag bits (RQ_ACK/RQ_SERIALIZE are set by the C parent, never
   by OCaml) */
#define RQ_UNIFORM 1
#define RQ_HAS_STORES 2
#define RQ_WANT_MEM 4
#define RQ_ACK 8
#define RQ_SERIALIZE 16

/* ctl page: one cache-line-ish struct at the front of the shm */
typedef struct {
  volatile uint64_t req;       /* parent bumps to post a request */
  volatile uint64_t done;      /* child stores req when finished */
  volatile uint32_t sleeping;  /* child is (about to be) blocked on the pipe */
  volatile uint32_t nlanes_req;
  volatile uint32_t code_len;
  volatile uint32_t flags;
  volatile uint32_t arena_gen; /* bumped when any arena image changes */
  uint32_t pad;
  uint64_t base;               /* sandbox arena base address */
  uint32_t mem_size;
  uint32_t nlanes;             /* capacity */
} ctl_t;

typedef struct {
  uint8_t *shm;       /* parent RW view */
  size_t shm_size;
  uint64_t base;
  uint32_t mem_size;
  uint32_t mem_map;   /* mem_size rounded up to page */
  uint32_t nlanes;
  pid_t pid;          /* 0 = dead for good */
  int bell_r, bell_w; /* doorbell pipe; parent keeps both ends open */
  int ack_r, ack_w;   /* completion pipe, fresh per child (see spawn_child) */
  int single_cpu;     /* spinning would only steal the child's timeslice */
  int code_dirty;     /* code bytes written since the last request */
} worker_t;

static inline ctl_t *ctl_of(worker_t *w) { return (ctl_t *)w->shm; }
static inline uint8_t *code_of(worker_t *w) { return w->shm + 4096; }
static inline uint8_t *lanes_of(worker_t *w) {
  return w->shm + 4096 + CODE_MAX;
}
static inline uint8_t *arenas_of(worker_t *w) {
  return lanes_of(w) + (size_t)w->nlanes * LANE_SZ;
}
static inline uint8_t *results_of(worker_t *w) {
  return arenas_of(w) + (size_t)w->nlanes * w->mem_size;
}
static inline uint8_t *memout_of(worker_t *w) {
  return results_of(w) + (size_t)w->nlanes * RES_SZ;
}

/* ----- child ----- */

static sigjmp_buf child_jb;
static volatile sig_atomic_t child_in_run;
static volatile uint64_t child_sig_no, child_sig_addr, child_sig_rip;

static void child_handler(int sig, siginfo_t *si, void *uc_) {
  if (!child_in_run) _exit(98);
  ucontext_t *uc = (ucontext_t *)uc_;
  child_sig_no = (uint64_t)sig;
  child_sig_addr = (uint64_t)(uintptr_t)si->si_addr;
  child_sig_rip = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
  siglongjmp(child_jb, 1);
}

static void serialize_cpu(void) {
  unsigned a = 0, b, c, d;
  __asm__ __volatile__("cpuid"
                       : "+a"(a), "=b"(b), "=c"(c), "=d"(d)
                       :
                       : "memory");
}

static void child_close_range(unsigned lo, unsigned hi) {
  if (lo > hi) return;
#ifdef SYS_close_range
  if (syscall(SYS_close_range, lo, hi, 0) == 0) return;
#endif
  unsigned cap = hi;
  if (cap > 65535) {
    struct rlimit rl;
    cap = (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < 65536)
              ? (unsigned)rl.rlim_cur
              : 4096;
  }
  for (unsigned fd = lo; fd <= cap; fd++) close((int)fd);
}

static void child_main(worker_t *w, pid_t parent) __attribute__((noreturn));

static void child_main(worker_t *w, pid_t parent) {
  ctl_t *c = ctl_of(w);

  /* Drop every inherited fd except our doorbell read end and ack write
     end.  fork copies whatever the parent holds open: other workers'
     pipes (concurrent spawns from multiple domains can even form a
     cycle of workers holding each other's doorbell write ends, so none
     of them ever sees EOF after the parent exits) and the parent's
     stdout/stderr (which would keep its shell pipelines open).  Closing
     our own bell_w/ack_r also makes parent death EOF our blocking read
     and child death HUP the parent's poll. */
  int keep_lo = w->bell_r < w->ack_w ? w->bell_r : w->ack_w;
  int keep_hi = w->bell_r < w->ack_w ? w->ack_w : w->bell_r;
  if (keep_lo > 0) child_close_range(0, (unsigned)keep_lo - 1);
  if (keep_hi > keep_lo + 1)
    child_close_range((unsigned)keep_lo + 1, (unsigned)keep_hi - 1);
  child_close_range((unsigned)keep_hi + 1, ~0u);

  /* If the parent dies while we are mid-request rather than parked in
     read (where EOF would catch it), nobody is left to kill a runaway
     candidate: have the kernel do it. */
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) _exit(0);

  struct rlimit rl = {0, 0};
  setrlimit(RLIMIT_CORE, &rl);

  /* Fixed child-private pages: the state page the trampoline addresses
     with abs32 displacements, and the arena at the sandbox base so
     candidate pointers dereference directly. */
  if (mmap((void *)STATE_ADDR, STATE_SIZE, PROT_READ | PROT_WRITE,
           MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE, -1,
           0) == MAP_FAILED)
    _exit(99);
  if (mmap((void *)(uintptr_t)w->base, w->mem_map, PROT_READ | PROT_WRITE,
           MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE, -1,
           0) == MAP_FAILED)
    _exit(99);

  /* Our view of the shared code region becomes execute-only-ish: the
     parent keeps writing through its own RW view of the same pages. */
  if (mprotect(code_of(w), CODE_MAX, PROT_READ | PROT_EXEC) != 0) _exit(99);

  void *astk = mmap(NULL, 65536, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (astk == MAP_FAILED) _exit(99);
  stack_t ss = {.ss_sp = astk, .ss_size = 65536, .ss_flags = 0};
  if (sigaltstack(&ss, NULL) != 0) _exit(99);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = child_handler;
  /* NODEFER: the handler only records the fault and siglongjmps away, so
     nothing must stay blocked — which lets the per-lane sigsetjmp skip
     the signal-mask save (an rt_sigprocmask syscall per lane). */
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_NODEFER;
  sigemptyset(&sa.sa_mask);
  int sigs[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL};
  for (int i = 0; i < 4; i++)
    if (sigaction(sigs[i], &sa, NULL) != 0) _exit(99);

  uint8_t *state = (uint8_t *)STATE_ADDR;
  uint8_t *arena = (uint8_t *)(uintptr_t)w->base;
  uint64_t last_done = 0;
  uint32_t last_gen = ~0u;
  int arena_clean = 0;

  /* On a uniprocessor, spinning here only steals the parent's timeslice
     (and vice versa): park on the doorbell immediately instead. */
  int spin_max = w->single_cpu ? 0 : 20000;

  for (;;) {
    /* Wait for work: spin briefly, then park on the doorbell pipe. */
    uint64_t req;
    for (;;) {
      req = __atomic_load_n(&c->req, __ATOMIC_SEQ_CST);
      if (req != last_done) break;
      int spun = 0;
      for (; spun < spin_max; spun++) {
        req = __atomic_load_n(&c->req, __ATOMIC_SEQ_CST);
        if (req != last_done) break;
        __asm__ __volatile__("pause");
      }
      if (req != last_done) break;
      __atomic_store_n(&c->sleeping, 1, __ATOMIC_SEQ_CST);
      req = __atomic_load_n(&c->req, __ATOMIC_SEQ_CST);
      if (req != last_done) {
        __atomic_store_n(&c->sleeping, 0, __ATOMIC_SEQ_CST);
        break;
      }
      char buf;
      ssize_t r = read(w->bell_r, &buf, 1);
      __atomic_store_n(&c->sleeping, 0, __ATOMIC_SEQ_CST);
      if (r == 0) _exit(0); /* parent is gone */
    }

    uint32_t n = c->nlanes_req;
    uint32_t fl = c->flags;
    uint32_t gen = c->arena_gen;
    if (n > w->nlanes) n = w->nlanes;
    int uniform = (fl & RQ_UNIFORM) != 0;
    int stores = (fl & RQ_HAS_STORES) != 0;
    int fresh = uniform && arena_clean && gen == last_gen;
    last_gen = gen;

    /* When the parent wrote fresh code bytes through another mapping of
       these pages and we may have observed the request without a kernel
       transition (the multicore spin path), serialize before jumping
       into them.  On the blocking paths the wakeup context switch
       already serialized — and cpuid is a pricy VM exit under
       virtualization, so skipping it when sound matters. */
    if (fl & RQ_SERIALIZE) serialize_cpu();

    void (*entry)(void) = (void (*)(void))code_of(w);
    for (uint32_t l = 0; l < n; l++) {
      if (!fresh) memcpy(arena, arenas_of(w) + (size_t)l * w->mem_size,
                         w->mem_size);
      memcpy(state, lanes_of(w) + (size_t)l * LANE_SZ, LANE_SZ);
      *(uint64_t *)(state + ST_FCODE) = ~0ULL;
      uint8_t *res = results_of(w) + (size_t)l * RES_SZ;
      uint32_t status, rcode = 0;
      uint64_t ea = 0, rip = 0;
      if (sigsetjmp(child_jb, 0) == 0) {
        child_in_run = 1;
        entry();
        child_in_run = 0;
        uint64_t fc = *(uint64_t *)(state + ST_FCODE);
        if (fc == ~0ULL) status = RS_FINISHED;
        else {
          status = RS_GUARD;
          rcode = (uint32_t)fc;
          ea = *(uint64_t *)(state + ST_FEA);
        }
      } else {
        child_in_run = 0;
        status = RS_HW;
        rcode = (uint32_t)child_sig_no;
        ea = child_sig_addr;
        rip = child_sig_rip - (uint64_t)(uintptr_t)code_of(w);
      }
      *(uint32_t *)(res + 0) = status;
      *(uint32_t *)(res + 4) = rcode;
      *(uint64_t *)(res + 8) = ea;
      *(uint64_t *)(res + 16) = rip;
      memcpy(res + 24, state + ST_GP_OUT, 128);
      memcpy(res + 24 + 128, state + ST_XMM_OUT, 256);
      memcpy(res + 24 + 384, state + ST_FLAGS_OUT, 8);
      if (fl & RQ_WANT_MEM)
        memcpy(memout_of(w) + (size_t)l * w->mem_size, arena, w->mem_size);
      fresh = uniform && !stores && status != RS_HW;
    }
    arena_clean = fresh;
    last_done = req;
    __atomic_store_n(&c->done, req, __ATOMIC_SEQ_CST);
    if (fl & RQ_ACK) {
      char b = 1;
      ssize_t r = write(w->ack_w, &b, 1);
      (void)r;
    }
  }
}

/* ----- parent ----- */

static int spawn_child(worker_t *w) {
  /* The ack pipe is per-child: the parent must hold only the read end,
     so a dead child HUPs the poll instead of leaving it hanging. */
  if (w->ack_r >= 0) close(w->ack_r);
  if (w->ack_w >= 0) close(w->ack_w);
  int fds[2];
  if (pipe(fds) != 0) return -1;
  w->ack_r = fds[0];
  w->ack_w = fds[1];
  pid_t parent = getpid();
  pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) child_main(w, parent); /* never returns */
  close(w->ack_w);
  w->ack_w = -1;
  w->pid = pid;
  return 0;
}

static void kill_child(worker_t *w) {
  if (w->pid > 0) {
    kill(w->pid, SIGKILL);
    waitpid(w->pid, NULL, 0);
    w->pid = 0;
  }
}

static uint64_t now_ns(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (uint64_t)ts.tv_sec * 1000000000ULL + (uint64_t)ts.tv_nsec;
}

/* Runs one request to completion.  Returns 0 on success, 1 if the child
   crashed or timed out (a fresh child has been forked), 2 if the worker
   could not be respawned.  Called with the OCaml runtime released. */
static int do_request(worker_t *w, uint32_t nlanes, uint32_t code_len,
                      uint32_t flags) {
  if (w->pid == 0) return 2;
  ctl_t *c = ctl_of(w);
  if (w->single_cpu) flags |= RQ_ACK;
  /* Cross-modifying-code serialization is only needed where the child
     might run the new bytes without an intervening kernel entry: fresh
     code observed from the spin path.  On a uniprocessor every request
     involves a context switch, which serializes. */
  if (w->code_dirty && !w->single_cpu) flags |= RQ_SERIALIZE;
  w->code_dirty = 0;
  c->nlanes_req = nlanes;
  c->code_len = code_len;
  c->flags = flags;
  uint64_t req = c->req + 1;
  __atomic_store_n(&c->req, req, __ATOMIC_SEQ_CST);
  if (__atomic_load_n(&c->sleeping, __ATOMIC_SEQ_CST)) {
    char b = 1;
    ssize_t r = write(w->bell_w, &b, 1);
    (void)r;
  }
  if (flags & RQ_ACK) {
    /* Uniprocessor: spinning would only delay the child.  Block on the
       ack pipe; the read syscall hands the CPU straight over.  A dead
       child HUPs the pipe (we hold only the read end), a hung one runs
       into the poll timeout. */
    uint64_t t0 = now_ns();
    for (;;) {
      if (__atomic_load_n(&c->done, __ATOMIC_SEQ_CST) == req) {
        char b;
        ssize_t r = read(w->ack_r, &b, 1); /* drain this request's ack */
        (void)r;
        return 0;
      }
      struct pollfd pf = {.fd = w->ack_r, .events = POLLIN};
      int pr = poll(&pf, 1, 200);
      if (pr > 0 && (pf.revents & POLLIN)) {
        char b;
        ssize_t r = read(w->ack_r, &b, 1);
        (void)r;
        if (__atomic_load_n(&c->done, __ATOMIC_SEQ_CST) == req) return 0;
      } else if (pr > 0) {
        break; /* POLLHUP: child died */
      }
      int st;
      pid_t r = waitpid(w->pid, &st, WNOHANG);
      if (r == w->pid) { w->pid = 0; break; }
      if (now_ns() - t0 > 3000000000ULL) {
        kill_child(w);
        break;
      }
    }
    kill_child(w);
    goto respawn;
  }
  /* Fast path: spin ~200us. */
  for (int i = 0; i < 40000; i++) {
    if (__atomic_load_n(&c->done, __ATOMIC_SEQ_CST) == req) return 0;
    __asm__ __volatile__("pause");
  }
  /* Slow path: 50us sleeps, liveness checks, ~3s deadline. */
  uint64_t t0 = now_ns();
  for (;;) {
    if (__atomic_load_n(&c->done, __ATOMIC_SEQ_CST) == req) return 0;
    int st;
    pid_t r = waitpid(w->pid, &st, WNOHANG);
    if (r == w->pid) { w->pid = 0; break; }
    if (now_ns() - t0 > 3000000000ULL) {
      kill_child(w);
      break;
    }
    struct timespec ts = {0, 50000};
    nanosleep(&ts, NULL);
  }
  /* Crashed or hung: reset the protocol and refork. */
  kill_child(w);
respawn:
  c->req = 0;
  c->done = 0;
  c->sleeping = 0;
  if (spawn_child(w) != 0) return 2;
  return 1;
}

/* ----- OCaml interface ----- */

#define Worker_val(v) (*(worker_t **)Data_custom_val(v))

static void worker_finalize(value v) {
  worker_t *w = Worker_val(v);
  if (!w) return;
  kill_child(w);
  if (w->bell_r >= 0) close(w->bell_r);
  if (w->bell_w >= 0) close(w->bell_w);
  if (w->ack_r >= 0) close(w->ack_r);
  if (w->ack_w >= 0) close(w->ack_w);
  munmap(w->shm, w->shm_size);
  caml_stat_free(w);
  Worker_val(v) = NULL;
}

static struct custom_operations worker_ops = {
    "stoke.native_worker",      worker_finalize,
    custom_compare_default,     custom_hash_default,
    custom_serialize_default,   custom_deserialize_default,
    custom_compare_ext_default, custom_fixed_length_default};

CAMLprim value stoke_native_probe(value unit) {
  CAMLparam1(unit);
  int ok = 0;
  /* Can we make shared anonymous memory executable and run it? */
  uint8_t *p = mmap(NULL, 4096, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p != MAP_FAILED) {
    /* movl $42, %eax; ret */
    static const uint8_t code[] = {0xb8, 0x2a, 0, 0, 0, 0xc3};
    memcpy(p, code, sizeof code);
    if (mprotect(p, 4096, PROT_READ | PROT_EXEC) == 0) {
      int (*f)(void) = (int (*)(void))p;
      ok = f() == 42;
    }
    munmap(p, 4096);
  }
  /* Can we claim the fixed low addresses the child needs? */
  if (ok) {
    void *s = mmap((void *)STATE_ADDR, 4096, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE, -1, 0);
    if (s == MAP_FAILED) ok = 0;
    else munmap(s, 4096);
  }
  CAMLreturn(Val_bool(ok));
}

CAMLprim value stoke_native_cpu_flags(value unit) {
  CAMLparam1(unit);
  int f = 0;
  if (__builtin_cpu_supports("avx")) f |= 1;
  if (__builtin_cpu_supports("fma")) f |= 2;
  if (__builtin_cpu_supports("sse4.1")) f |= 4;
  if (__builtin_cpu_supports("sse3")) f |= 8;
  CAMLreturn(Val_int(f));
}

CAMLprim value stoke_native_create(value vnlanes, value vmem, value vbase) {
  CAMLparam3(vnlanes, vmem, vbase);
  CAMLlocal2(res, box);
  int nlanes = Int_val(vnlanes);
  int mem_size = Int_val(vmem);
  uint64_t base = (uint64_t)Int64_val(vbase);
  if (nlanes < 1 || mem_size < 1) caml_invalid_argument("Native: bad sizes");
  /* abs32 addressing: everything the trampoline touches must sit below
     2 GiB, and the arena must not collide with the state page. */
  if (base < STATE_ADDR + STATE_SIZE || base + (uint64_t)mem_size > 0x7fffffffULL)
    CAMLreturn(Val_int(0)); /* None */
  uint32_t mem_map = ((uint32_t)mem_size + 4095u) & ~4095u;
  size_t shm_size = 4096 + CODE_MAX +
                    (size_t)nlanes * (LANE_SZ + RES_SZ + 2 * (size_t)mem_size);
  shm_size = (shm_size + 4095) & ~(size_t)4095;
  uint8_t *shm = mmap(NULL, shm_size, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (shm == MAP_FAILED) CAMLreturn(Val_int(0));
  worker_t *w = caml_stat_alloc(sizeof *w);
  memset(w, 0, sizeof *w);
  w->ack_r = -1;
  w->ack_w = -1;
  {
    /* The spin handshake assumes parent and child run concurrently; on a
       single CPU it degrades into scheduler round-trips, so both sides
       switch to blocking pipe I/O.  STOKE_NATIVE_ACK=1/0 overrides the
       detection (useful for exercising either path in tests). */
    const char *e = getenv("STOKE_NATIVE_ACK");
    if (e && *e)
      w->single_cpu = *e != '0';
    else
      w->single_cpu = sysconf(_SC_NPROCESSORS_ONLN) <= 1;
  }
  w->shm = shm;
  w->shm_size = shm_size;
  w->base = base;
  w->mem_size = (uint32_t)mem_size;
  w->mem_map = mem_map;
  w->nlanes = (uint32_t)nlanes;
  ctl_t *c = ctl_of(w);
  memset((void *)c, 0, sizeof *c);
  c->base = base;
  c->mem_size = (uint32_t)mem_size;
  c->nlanes = (uint32_t)nlanes;
  int fds[2];
  if (pipe(fds) != 0) {
    munmap(shm, shm_size);
    caml_stat_free(w);
    CAMLreturn(Val_int(0));
  }
  w->bell_r = fds[0];
  w->bell_w = fds[1];
  if (spawn_child(w) != 0) {
    close(w->bell_r);
    close(w->bell_w);
    munmap(shm, shm_size);
    caml_stat_free(w);
    CAMLreturn(Val_int(0));
  }
  box = caml_alloc_custom(&worker_ops, sizeof(worker_t *), 0, 1);
  Worker_val(box) = w;
  res = caml_alloc_small(1, 0); /* Some box */
  Field(res, 0) = box;
  CAMLreturn(res);
}

static worker_t *get_worker(value v) {
  worker_t *w = Worker_val(v);
  if (!w) caml_failwith("Native: worker already finalized");
  return w;
}

CAMLprim value stoke_native_write_code(value vw, value vbytes, value vlen) {
  CAMLparam3(vw, vbytes, vlen);
  worker_t *w = get_worker(vw);
  int len = Int_val(vlen);
  if (len < 0 || len > CODE_MAX || len > caml_string_length(vbytes))
    caml_invalid_argument("Native: code too large");
  memcpy(code_of(w), Bytes_val(vbytes), (size_t)len);
  w->code_dirty = 1;
  CAMLreturn(Val_unit);
}

CAMLprim value stoke_native_write_lanes(value vw, value vbytes) {
  CAMLparam2(vw, vbytes);
  worker_t *w = get_worker(vw);
  size_t want = (size_t)w->nlanes * LANE_SZ;
  if (caml_string_length(vbytes) != want)
    caml_invalid_argument("Native: lane blob size");
  memcpy(lanes_of(w), Bytes_val(vbytes), want);
  CAMLreturn(Val_unit);
}

CAMLprim value stoke_native_write_arena(value vw, value vlane, value vbytes) {
  CAMLparam3(vw, vlane, vbytes);
  worker_t *w = get_worker(vw);
  uint32_t l = (uint32_t)Int_val(vlane);
  if (l >= w->nlanes || caml_string_length(vbytes) != w->mem_size)
    caml_invalid_argument("Native: arena write");
  memcpy(arenas_of(w) + (size_t)l * w->mem_size, Bytes_val(vbytes),
         w->mem_size);
  ctl_of(w)->arena_gen++;
  CAMLreturn(Val_unit);
}

CAMLprim value stoke_native_request(value vw, value vnlanes, value vcode_len,
                                    value vflags) {
  CAMLparam4(vw, vnlanes, vcode_len, vflags);
  worker_t *w = get_worker(vw);
  uint32_t n = (uint32_t)Int_val(vnlanes);
  uint32_t cl = (uint32_t)Int_val(vcode_len);
  uint32_t fl = (uint32_t)Int_val(vflags);
  if (n < 1 || n > w->nlanes || cl > CODE_MAX)
    caml_invalid_argument("Native: bad request");
  int rc;
  caml_enter_blocking_section();
  rc = do_request(w, n, cl, fl);
  caml_leave_blocking_section();
  CAMLreturn(Val_int(rc));
}

CAMLprim value stoke_native_read_results(value vw, value vbytes) {
  CAMLparam2(vw, vbytes);
  worker_t *w = get_worker(vw);
  size_t want = (size_t)w->nlanes * RES_SZ;
  if (caml_string_length(vbytes) != want)
    caml_invalid_argument("Native: result blob size");
  memcpy(Bytes_val(vbytes), results_of(w), want);
  CAMLreturn(Val_unit);
}

CAMLprim value stoke_native_read_mem(value vw, value vlane, value vbytes) {
  CAMLparam3(vw, vlane, vbytes);
  worker_t *w = get_worker(vw);
  uint32_t l = (uint32_t)Int_val(vlane);
  if (l >= w->nlanes || caml_string_length(vbytes) != w->mem_size)
    caml_invalid_argument("Native: mem read");
  memcpy(Bytes_val(vbytes), memout_of(w) + (size_t)l * w->mem_size,
         w->mem_size);
  CAMLreturn(Val_unit);
}

