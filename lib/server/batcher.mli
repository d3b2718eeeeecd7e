(** Micro-batching queue with fair-share scheduling: many submitter
    threads hand in small groups of work items, each tagged with a
    fairness key (one key per tenant; the unkeyed API uses key 0); one
    dispatcher thread coalesces groups across keys into batches and
    runs each batch through a single evaluation call.

    There is no timer. A free dispatcher drains whatever is queued at
    once, up to [max_batch] items, so a busy queue amortizes per-batch
    fixed costs (dispatch to the domain pool, cache warm-up) over
    everything that arrived while the previous batch ran, and a lone
    request pays no added wait. Blocking submitters ({!submit_many})
    wake a parked dispatcher on enqueue; asynchronous submitters
    ({!submit_async}) do not, and the caller wakes it once with
    {!flush} after handing in everything it has — an event loop flushes
    once per round, so the dispatcher sees the whole round as one
    batch instead of waking per request.

    Batch composition is deficit round-robin across keys: every key
    with queued work is visited in rotation, earns [quantum] items of
    credit per visit, and contributes whole groups while its credit
    lasts, so a hot key floods only its own queue — a cold key's lone
    request still rides the very next batch instead of waiting behind
    the backlog. Per-key credit carries across batches, which lets a
    group larger than [quantum] through once its key has accumulated
    enough turns (and an oversized group always runs alone rather than
    being split).

    Under load the queue is bounded twice over: submissions that would
    push the total past [capacity] — or the submitting key past
    [key_capacity] — are rejected immediately with [`Overloaded], which
    the HTTP layer maps to [503 Retry-After]; backpressure instead of
    collapse, per tenant before globally.

    Submitter groups are never split across batches (a batch request is
    answered from exactly one evaluation call), and results come back
    in submission order within each group. *)

type ('a, 'b) t
(** A batcher accepting items of type ['a] and producing one ['b] per
    item. *)

(** Why a submission failed: the queue was full ([`Overloaded] — the
    global [capacity] or the submitting key's [key_capacity]), the
    batcher is shutting down ([`Shutdown]), or the evaluation function
    raised ([`Failed] — carries the exception; the batcher itself keeps
    running). *)
type error = [ `Overloaded | `Shutdown | `Failed of exn ]

(** [create ?max_batch ?capacity ?key_capacity ?quantum ?on_depth
    ?on_key_depth ?on_batch ?on_share ?before_batch run] starts the
    dispatcher thread. [run] is called with between 1 and
    [max (max_batch) (largest single group)] items and must return
    exactly one output per input, in order; a batch may mix items from
    several keys (the caller's ['a] should carry whatever routing the
    evaluation needs). The dispatcher runs a batch as soon as it is
    free and work is queued: nothing waits for a batch to fill. Hooks,
    all called with the batcher lock released: [on_depth] observes the
    total queue depth after every enqueue/drain, [on_key_depth key
    depth] the submitting/drained key's own depth, [on_batch] the size
    of every dispatched batch, [on_share key taken] how many items each
    key contributed to the batch just drained, [before_batch] runs just
    before each evaluation (test seam for forcing queue buildup). All
    hooks must be fast and must not raise. Defaults: [max_batch = 64],
    [capacity = 1024], [key_capacity = capacity],
    [quantum = max 1 (max_batch / 2)]. Raises [Invalid_argument] if
    [max_batch], [capacity], [key_capacity] or [quantum] is
    non-positive. *)
val create :
  ?max_batch:int ->
  ?capacity:int ->
  ?key_capacity:int ->
  ?quantum:int ->
  ?on_depth:(int -> unit) ->
  ?on_key_depth:(int -> int -> unit) ->
  ?on_batch:(int -> unit) ->
  ?on_share:(int -> int -> unit) ->
  ?before_batch:(unit -> unit) ->
  ('a array -> 'b array) ->
  ('a, 'b) t

(** [submit_many ?key t items] enqueues [items] as one indivisible
    group under fairness key [key] (default 0), wakes the dispatcher if
    it is parked, and blocks until the group has been evaluated,
    returning the outputs in item order. An empty array returns
    [Ok [||]] without touching the queue. A group larger than
    [max_batch] is still accepted (it becomes a batch of its own) as
    long as it fits the remaining capacities. *)
val submit_many : ?key:int -> ('a, 'b) t -> 'a array -> ('b array, error) result

(** [submit ?key t item] is [submit_many ?key t [| item |]]
    unwrapped. *)
val submit : ?key:int -> ('a, 'b) t -> 'a -> ('b, error) result

(** [submit_async ?key t items ~notify] enqueues [items] as one
    indivisible group without blocking — the event-loop submission
    path, where the caller cannot park a thread per request. It does
    not wake a parked dispatcher: call {!flush} once the current round
    of submissions is in (a dispatcher that is busy picks the group up
    after its current batch either way). [notify] is called exactly
    once with the group's outcome: on the dispatcher thread (no lock
    held) after the batch runs, or synchronously on the caller's thread
    when the group is rejected ([`Overloaded]/[`Shutdown]) or empty.
    [notify] must not raise; exceptions are swallowed to protect the
    dispatcher. *)
val submit_async :
  ?key:int ->
  ('a, 'b) t ->
  'a array ->
  notify:(('b array, error) result -> unit) ->
  unit

(** [flush t] wakes the dispatcher if it is parked and work is
    queued: one wake-up for every {!submit_async} since the last one.
    Cheap when there is nothing to do (one lock round trip, no
    syscall). *)
val flush : ('a, 'b) t -> unit

(** [depth t] is the number of items currently queued across all keys
    (diagnostics). *)
val depth : ('a, 'b) t -> int

(** [key_depth t key] is the number of items [key] currently has
    queued; 0 for a key that never submitted. *)
val key_depth : ('a, 'b) t -> int -> int

(** [shutdown t] stops accepting new work ([`Shutdown] thereafter),
    lets the dispatcher drain and answer everything already queued,
    then joins it. Idempotent; safe to call while submitters are still
    blocked — they all get answers, never hang. *)
val shutdown : ('a, 'b) t -> unit
