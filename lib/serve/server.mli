(** [stoke serve]: a persistent multi-tenant search daemon.

    One process owns a Unix-domain socket and a state directory.  Each
    connection submits one job ({!Protocol.request}); the daemon
    schedules it across a bounded worker pool with per-tenant FIFO
    fair-share (tenants take turns; within a tenant, jobs run in
    submission order), streams the job's full telemetry back over the
    connection as JSONL events, and answers the terminal [job_end] event
    with the result payload.

    {b Durability.}  Optimize and frontier jobs checkpoint into the
    state directory on a cadence ([checkpoint_every_s]) under a
    key derived from the search fingerprint and the target program's
    hash, so a killed daemon resumes a resubmitted job from its last
    checkpoint instead of restarting — and, under the [Exhaust] policy,
    produces the bit-identical winner the uninterrupted run would have.
    Completed results persist as [<digest>.result.json]: a repeated
    identical request is a {b memo hit} answered without running a
    single proposal ([cache_hit] event, [cached: true] on [job_end]),
    across daemon restarts.

    {b Deadlines and cancellation.}  A job runs under its request's
    [deadline_s] (or the server default).  Shutdown (the [shutdown] op
    or {!shutdown}) cancels in-flight optimize jobs via
    {!Search.Control.Cancelled}; their checkpoints survive, so the work
    is paused, not lost.  Frontier and validate jobs are bounded by
    their deadline only.  A partial result (deadline hit or cancelled)
    is still returned to its client but {b never memoized}: the
    checkpoint stays authoritative, so resubmitting the request resumes
    the remaining work instead of replaying the truncation forever.

    {b Telemetry.}  The [log] sink receives the daemon's own events —
    [serve_start], [serve_recover], [serve_stop], [job_submit],
    [job_start], [job_end], [cache_hit], [queue_depth], [worker_error]
    — while each client connection receives its job's lifecycle events
    plus the underlying search/validation stream (see
    [docs/TELEMETRY.md]). *)

type config = {
  socket_path : string;
  state_dir : string;
  workers : int;  (** concurrent jobs (worker threads), default 1 *)
  max_queue : int;  (** queued-job bound; beyond it jobs are rejected *)
  default_deadline_s : float option;
  checkpoint_every_s : float;  (** snapshot cadence for running jobs *)
  io_timeout_s : float;
      (** per-connection socket read/write timeout: a client that never
          sends its request, or stops draining its event stream, is
          disconnected after this many seconds instead of pinning a
          handler thread (or graceful shutdown) forever *)
  max_domains : int;  (** per-job cap on requested search domains *)
  kernels : (string * Sandbox.Spec.t) list;  (** the job registry *)
  log : Obs.Sink.t;
}

val default_config :
  socket_path:string ->
  state_dir:string ->
  kernels:(string * Sandbox.Spec.t) list ->
  config
(** 1 worker, queue bound 64, no default deadline, 10 s checkpoint
    cadence, 30 s socket timeout, 4 domains max, null log. *)

val max_request_bytes : int
(** The longest request line the daemon reads (newline excluded).  A
    client that sends more without a newline gets a [job_end] error and
    is disconnected, so a request can never grow the daemon's heap
    without bound. *)

type t
(** A running server's handle — only useful for {!shutdown}. *)

val run : ?on_ready:(t -> unit) -> config -> unit
(** Binds the socket (replacing a stale file), scans the state
    directory, serves until a shutdown request, then drains: running
    jobs are cancelled ({!Search.Control.Cancelled}), queued jobs are
    refused, workers joined, the socket unlinked.  [on_ready] runs once
    the socket is listening — the hook a CLI uses to install signal
    handlers and tests use to know the server is up. *)

val shutdown : t -> unit
(** Idempotent; safe from signal handlers and other threads. *)
