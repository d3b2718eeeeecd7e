(** Network front-end for the PROM detector: a dependency-free,
    multi-tenant HTTP/1.1 server (plain [Unix] sockets plus systhreads)
    serving many {!Prom.Service} tenants behind one endpoint:

    - [POST /predict] — single query [{"features":[...],"proba":[...]}]
      or batch [{"queries":[...]}]; replies with the committee verdict,
      credibility and confidence per query. Replies are bit-identical
      to calling {!Prom.Service.evaluate_batch} directly on the
      tenant's service.
    - [POST /t/<tenant>/predict] — the same, against a named tenant's
      engine. Unprefixed routes bind to the reserved [default] tenant.
    - [GET /metrics] — Prometheus text exposition of the attached
      registry, including the serving-layer series
      ([prom_http_requests_total{code,tenant}], [prom_http_batch_size],
      [prom_http_queue_depth], [prom_http_request_seconds],
      [prom_http_open_connections],
      [prom_http_evloop_iteration_seconds]) and the per-tenant series
      ([prom_tenant_queue_depth], [prom_tenant_batch_share],
      [prom_tenant_swaps_total], all labeled [{tenant}]).
    - [GET /healthz] — liveness, the default engine's shape, and every
      tenant's lifecycle state; [GET /t/<tenant>/healthz] for one
      tenant.
    - [POST /admin/swap] and [POST /t/<tenant>/admin/swap] — load the
      newest snapshot from the tenant's own snapshot directory and
      hot-swap it in with zero downtime. 409 when the tenant has no
      snapshot directory (or the snapshot's shape is incompatible);
      [503 Retry-After] when the directory holds no loadable
      generation yet — retryable, a writer may land one any moment.

    Tenant path segments are validated against
    {!Prom.Tenant.valid_name} ([[A-Za-z0-9_-]{1,64}]) before any
    lookup: dots, slashes and percent-escapes all answer 404, so a
    request path can never address a snapshot directory outside the
    serving root. Unknown (but well-formed) tenants are 404 too.

    Connections are multiplexed by a poll(2)-backed event loop — one
    systhread per shard, each with its own [SO_REUSEPORT] listener when
    [shards > 1] — so concurrency is bounded by the process's
    descriptor limit, not by [FD_SETSIZE] or by thread count. Sockets
    are nonblocking; each connection is a small state machine that
    resumes HTTP parsing incrementally on readability and flushes its
    pending response on writability. Inference is funneled through one
    fair-share {!Batcher}: concurrent requests across all tenants
    coalesce into shared batch rounds (partitioned back per tenant, one
    [evaluate_batch] per tenant per round, on the shared domain pool)
    under a deficit round-robin quota, so a hot tenant's backlog cannot
    starve a cold tenant's lone request. There is no batching timer:
    each shard wakes the dispatcher once per event-loop round, after
    submitting every request it read in that round, and a busy
    dispatcher picks up whatever queued while its last batch ran. Batch
    completions re-arm the waiting connections' writers through the
    owning shard's self-pipe. Accepted sockets set [TCP_NODELAY], so a
    small response is never held back waiting for the client's ACK of
    the previous one.
    When the batch queue is full — globally ([queue_capacity]) or for
    the submitting tenant ([tenant_capacity]) — the server answers
    [503 Service Unavailable] with [Retry-After] instead of queueing
    unboundedly; beyond [max_connections] new connections get one
    fully-accounted 503 and are closed; malformed or oversized requests
    get 4xx (431 for oversized request heads, 413 for oversized
    bodies); nothing a client sends can crash the process. *)

(** Tunables for one server instance. *)
type config = {
  port : int;  (** TCP port on 127.0.0.1; [0] picks an ephemeral port *)
  max_batch : int;
      (** most queries one batch takes from the queue; a free
          dispatcher runs whatever is queued without waiting for a
          batch to fill *)
  queue_capacity : int;  (** queries queued beyond this are 503'd *)
  tenant_capacity : int;
      (** per-tenant queue cap, layered under [queue_capacity]: one
          tenant's queued queries beyond this are 503'd while other
          tenants keep submitting *)
  quantum : int;
      (** deficit-round-robin credit (items) each tenant earns per
          batching sweep; [<= 0] picks [max 1 (max_batch / 2)] *)
  max_body_bytes : int;  (** request bodies above this are 413'd *)
  max_connections : int;  (** concurrent connections beyond this are 503'd *)
  shards : int;
      (** event-loop shards, each a thread with its own [SO_REUSEPORT]
          listener; 1 = single loop, no [SO_REUSEPORT] needed *)
  idle_timeout_s : float;
      (** close keep-alive connections idle longer than this;
          [<= 0.] disables the sweep *)
}

(** [{ port = 0; max_batch = 64; queue_capacity = 1024;
    tenant_capacity = 1024; quantum = 0; max_body_bytes = 4 MiB;
    max_connections = 256; shards = 1; idle_timeout_s = 30. }]. *)
val default_config : config

(** The reserved tenant name unprefixed routes bind to
    (["default"]). *)
val default_tenant : string

(** Name of the per-tenant queue-cap environment variable
    ([PROM_TENANT_CAPACITY]). Read at {!start}; applies only when
    [config.tenant_capacity] is left at its default, so an explicit
    caller setting always wins. *)
val tenant_capacity_env : string

(** Name of the deficit-round-robin quantum environment variable
    ([PROM_TENANT_QUANTUM]). Read at {!start}; applies only when
    [config.quantum] is left at its default (auto). *)
val quantum_env : string

type t
(** A running server. *)

(** [start ?config ?telemetry ?pool ?snapshot_dir ?tenants
    ?before_batch service] binds, spawns the shard event-loop and
    dispatcher threads, and returns immediately. [service] becomes the
    engine of the reserved [default] tenant, registered into [tenants]
    (a fresh registry when absent) with [snapshot_dir] as its snapshot
    directory; pre-register additional tenants into [tenants] before
    calling [start] — each slot's snapshot directory backs its own
    [/t/<name>/admin/swap]. [telemetry] supplies the registry scraped
    by [/metrics] (a private registry is created when absent, so the
    HTTP series are always recorded). [pool] is the domain pool used
    for [evaluate_batch] (shared default pool when absent).
    [before_batch] is a test seam forwarded to the {!Batcher}. Raises
    [Unix.Unix_error] when the port cannot be bound,
    [Invalid_argument] when [config.shards < 1] or [tenants] already
    contains a ["default"] tenant. *)
val start :
  ?config:config ->
  ?telemetry:Prom.Telemetry.t ->
  ?pool:Prom_parallel.Pool.t ->
  ?snapshot_dir:string ->
  ?tenants:Prom.Tenant.t ->
  ?before_batch:(unit -> unit) ->
  Prom.Service.t ->
  t

(** [port t] is the bound TCP port — the ephemeral port when
    [config.port = 0]. *)
val port : t -> int

(** [service t] is the default tenant's service (e.g. to compare
    verdicts against the direct path in tests). *)
val service : t -> Prom.Service.t

(** [tenants t] is the server's tenant registry — the default tenant
    plus everything pre-registered before {!start}. *)
val tenants : t -> Prom.Tenant.t

(** [stop t] drains gracefully: mark every tenant slot Draining (in
    registration order), close the listeners, close idle keep-alive
    connections immediately, give connections mid-request a short grace
    to finish reading, let every in-flight request finish and its
    response be written, shut the batcher down, join all threads.
    Idempotent. No request whose bytes were accepted is ever
    dropped. *)
val stop : t -> unit
