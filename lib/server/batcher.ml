module Iox = Prom_store.Iox

type error = [ `Overloaded | `Shutdown | `Failed of exn ]

type ('a, 'b) cell = {
  items : 'a array;
  mutable outcome : ('b array, error) result option;
  (* [None] = a blocked submitter waits on [done_cond]; [Some f] = the
     dispatcher calls [f outcome] after the batch, outside the lock
     (event-loop completions re-arming writers via their self-pipe). *)
  notify : (('b array, error) result -> unit) option;
}

(* One fairness key's queue. Keys are small dense integers (the server
   uses the tenant's registration index; the unkeyed API uses key 0).
   [kdeficit] is the key's deficit-round-robin credit in items: each
   dispatcher sweep deposits [quantum] and withdraws the size of every
   group taken, so a key that queues more than its share this round
   carries the debt into the next one. *)
type ('a, 'b) kq = {
  kqueue : ('a, 'b) cell Queue.t;
  mutable kdepth : int;
  mutable kdeficit : int;
}

type ('a, 'b) t = {
  run : 'a array -> 'b array;
  max_batch : int;
  capacity : int;
  key_capacity : int;
  quantum : int;
  on_depth : int -> unit;
  on_key_depth : int -> int -> unit;
  on_batch : int -> unit;
  on_share : int -> int -> unit;
  before_batch : unit -> unit;
  lock : Mutex.t;
  done_cond : Condition.t;
  keys : (int, ('a, 'b) kq) Hashtbl.t;
  (* Round-robin ring of keys with a non-empty queue; the dispatcher
     pops from the head and re-appends still-active keys at the tail,
     so every active key is visited once per sweep whatever the
     arrival order. *)
  ring : int Queue.t;
  mutable depth : int;
  mutable stopping : bool;
  mutable joined : bool;
  (* True only while the dispatcher is parked in [wait_for_wake] with
     no wake byte in flight; whoever writes the byte clears it, so one
     park costs at most one wake syscall, and nobody writes while the
     dispatcher is awake (it re-checks the queue under the lock before
     parking again). *)
  mutable waiting : bool;
  (* Self-pipe the parked dispatcher polls. A [Condition] park would
     be simpler but is slower: the signalled waiter reacquires the
     batcher mutex first and then blocks on the runtime lock while
     holding it, stalling every submitter behind it. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable dispatcher : Thread.t option;
}

let wake t =
  (* Non-blocking: if the pipe buffer is full the dispatcher already
     has plenty of pending wake-ups. *)
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | EPIPE), _, _) -> ()

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  go ()

(* Called with the lock held: wake the dispatcher if it is parked. *)
let wake_parked t =
  if t.waiting then begin
    t.waiting <- false;
    wake t
  end

(* Park (without the lock held) until woken. Poll-backed: the
   self-pipe's descriptor number is unbounded under thousands of
   connections, which would corrupt a select fd_set. *)
let wait_for_wake t =
  match Evloop.wait_readable t.wake_r ~timeout:(-1.0) with
  | `Timeout -> ()
  | `Ready -> drain_wake t

let get_kq t key =
  match Hashtbl.find_opt t.keys key with
  | Some kq -> kq
  | None ->
      let kq = { kqueue = Queue.create (); kdepth = 0; kdeficit = 0 } in
      Hashtbl.replace t.keys key kq;
      kq

let run_batch t cells n =
  t.before_batch ();
  t.on_batch n;
  let outcome =
    match t.run (Array.concat (List.map (fun (_, c) -> c.items) cells)) with
    | outputs ->
        if Array.length outputs <> n then
          Error
            (`Failed
              (Invalid_argument
                 (Printf.sprintf "Batcher: run returned %d outputs for %d inputs"
                    (Array.length outputs) n)))
        else Ok outputs
    | exception e -> Error (`Failed e)
  in
  Mutex.lock t.lock;
  (match outcome with
  | Ok outputs ->
      let off = ref 0 in
      List.iter
        (fun (_, c) ->
          let k = Array.length c.items in
          c.outcome <- Some (Ok (Array.sub outputs !off k));
          off := !off + k)
        cells
  | Error _ as e -> List.iter (fun (_, c) -> c.outcome <- Some e) cells);
  Condition.broadcast t.done_cond;
  Mutex.unlock t.lock;
  (* Completion callbacks run on the dispatcher thread with no lock
     held, so a callback may call back into the batcher freely. *)
  List.iter
    (fun (_, c) ->
      match (c.notify, c.outcome) with
      | Some f, Some r -> ( try f r with _ -> ())
      | _ -> ())
    cells

(* Drain one fair batch under the lock: sweep the ring of active keys,
   depositing [quantum] credit per visit and taking whole groups while
   the credit and the batch both have room; sweeps repeat until the
   batch fills or a full sweep makes no progress (every remaining head
   group is out of credit or would overflow the batch). At least one
   group is always taken so an oversized group still runs, alone. *)
let drain_round t =
  let cells = ref [] and n = ref 0 in
  let full = ref false in
  let shares = Hashtbl.create 8 in
  let progress = ref true in
  while (not !full) && !progress && not (Queue.is_empty t.ring) do
    progress := false;
    let visits = Queue.length t.ring in
    let i = ref 0 in
    while (not !full) && !i < visits && not (Queue.is_empty t.ring) do
      incr i;
      let kid = Queue.pop t.ring in
      let kq = Hashtbl.find t.keys kid in
      kq.kdeficit <- kq.kdeficit + t.quantum;
      let take_more = ref true in
      while !take_more && not (Queue.is_empty kq.kqueue) do
        let c = Queue.peek kq.kqueue in
        let k = Array.length c.items in
        if !n > 0 && !n + k > t.max_batch then begin
          full := true;
          take_more := false
        end
        else if k > kq.kdeficit && !n > 0 then take_more := false
        else begin
          ignore (Queue.pop kq.kqueue);
          kq.kdepth <- kq.kdepth - k;
          kq.kdeficit <- Stdlib.max 0 (kq.kdeficit - k);
          cells := (kid, c) :: !cells;
          n := !n + k;
          progress := true;
          let taken =
            match Hashtbl.find_opt shares kid with
            | Some (prev, _) -> prev + k
            | None -> k
          in
          Hashtbl.replace shares kid (taken, kq.kdepth);
          if !n >= t.max_batch then begin
            full := true;
            take_more := false
          end
        end
      done;
      if Queue.is_empty kq.kqueue then kq.kdeficit <- 0
      else Queue.push kid t.ring;
      (match Hashtbl.find_opt shares kid with
      | Some (taken, _) -> Hashtbl.replace shares kid (taken, kq.kdepth)
      | None -> ())
    done
  done;
  t.depth <- t.depth - !n;
  (List.rev !cells, !n, shares)

let dispatcher_loop t =
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    while t.depth = 0 && not t.stopping do
      t.waiting <- true;
      Mutex.unlock t.lock;
      wait_for_wake t;
      Mutex.lock t.lock;
      t.waiting <- false
    done;
    if t.depth = 0 then begin
      (* stopping && drained: exit. [stopping] is checked under the same
         lock [submit_many] takes, so no group can slip in after this. *)
      Mutex.unlock t.lock;
      running := false
    end
    else begin
      (* Whatever is queued now is the batch: under load, everything
         that arrived while the previous batch ran; from idle, a whole
         event-loop round, since async submitters wake the dispatcher
         only at [flush]. *)
      let cells, n, shares = drain_round t in
      let depth_now = t.depth in
      Mutex.unlock t.lock;
      t.on_depth depth_now;
      Hashtbl.iter
        (fun kid (taken, kdepth) ->
          t.on_share kid taken;
          t.on_key_depth kid kdepth)
        shares;
      run_batch t cells n
    end
  done

let create ?(max_batch = 64) ?(capacity = 1024) ?key_capacity ?quantum
    ?(on_depth = fun _ -> ()) ?(on_key_depth = fun _ _ -> ())
    ?(on_batch = fun _ -> ()) ?(on_share = fun _ _ -> ())
    ?(before_batch = fun () -> ()) run =
  if max_batch < 1 then invalid_arg "Batcher.create: max_batch < 1";
  if capacity < 1 then invalid_arg "Batcher.create: capacity < 1";
  let key_capacity = Option.value ~default:capacity key_capacity in
  if key_capacity < 1 then invalid_arg "Batcher.create: key_capacity < 1";
  let quantum = Option.value ~default:(Stdlib.max 1 (max_batch / 2)) quantum in
  if quantum < 1 then invalid_arg "Batcher.create: quantum < 1";
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      run;
      max_batch;
      capacity;
      key_capacity;
      quantum;
      on_depth;
      on_key_depth;
      on_batch;
      on_share;
      before_batch;
      lock = Mutex.create ();
      done_cond = Condition.create ();
      keys = Hashtbl.create 8;
      ring = Queue.create ();
      depth = 0;
      stopping = false;
      joined = false;
      waiting = false;
      wake_r;
      wake_w;
      dispatcher = None;
    }
  in
  t.dispatcher <- Some (Thread.create dispatcher_loop t);
  t

(* Validate and enqueue one group under the lock; returns the depths
   after the enqueue so the caller can report them with the lock
   dropped ([on_depth] with the lock held would deadlock any callback
   touching [depth], and the dispatcher already calls it unlocked). *)
let enqueue t ~key cell k =
  if t.stopping then Error `Shutdown
  else if t.depth + k > t.capacity then Error `Overloaded
  else begin
    let kq = get_kq t key in
    if kq.kdepth + k > t.key_capacity then Error `Overloaded
    else begin
      if kq.kdepth = 0 then Queue.push key t.ring;
      Queue.push cell kq.kqueue;
      kq.kdepth <- kq.kdepth + k;
      t.depth <- t.depth + k;
      Ok (t.depth, kq.kdepth)
    end
  end

let submit_many ?(key = 0) t items =
  let k = Array.length items in
  if k = 0 then Ok [||]
  else begin
    let cell = { items; outcome = None; notify = None } in
    Mutex.lock t.lock;
    match enqueue t ~key cell k with
    | Error _ as e ->
        Mutex.unlock t.lock;
        e
    | Ok (depth_now, kdepth_now) ->
        (* A blocked caller has nothing more to add to the batch, so
           the dispatcher is woken now rather than at a [flush]. *)
        wake_parked t;
        Mutex.unlock t.lock;
        t.on_depth depth_now;
        t.on_key_depth key kdepth_now;
        Mutex.lock t.lock;
        let rec await () =
          match cell.outcome with
          | Some r -> r
          | None ->
              Condition.wait t.done_cond t.lock;
              await ()
        in
        let r = await () in
        Mutex.unlock t.lock;
        r
  end

let submit_async ?(key = 0) t items ~notify =
  let k = Array.length items in
  if k = 0 then notify (Ok [||])
  else begin
    let cell = { items; outcome = None; notify = Some notify } in
    Mutex.lock t.lock;
    match enqueue t ~key cell k with
    | Error _ as e ->
        Mutex.unlock t.lock;
        (* Rejection is reported synchronously on the caller's thread —
           there is no batch whose completion could carry it. *)
        notify e
    | Ok (depth_now, kdepth_now) ->
        Mutex.unlock t.lock;
        t.on_depth depth_now;
        t.on_key_depth key kdepth_now
  end

let flush t =
  Mutex.lock t.lock;
  if t.depth > 0 then wake_parked t;
  Mutex.unlock t.lock

let submit ?key t item =
  match submit_many ?key t [| item |] with
  | Ok outputs -> Ok outputs.(0)
  | Error _ as e -> e

let depth t =
  Mutex.lock t.lock;
  let d = t.depth in
  Mutex.unlock t.lock;
  d

let key_depth t key =
  Mutex.lock t.lock;
  let d =
    match Hashtbl.find_opt t.keys key with Some kq -> kq.kdepth | None -> 0
  in
  Mutex.unlock t.lock;
  d

let shutdown t =
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    (* Idempotent: wait for the first caller to finish the join. *)
    let rec spin () =
      Mutex.lock t.lock;
      let j = t.joined in
      Mutex.unlock t.lock;
      if not j then begin
        Thread.yield ();
        spin ()
      end
    in
    spin ()
  end
  else begin
    t.stopping <- true;
    wake t;
    Mutex.unlock t.lock;
    (match t.dispatcher with Some th -> Thread.join th | None -> ());
    Mutex.lock t.lock;
    t.joined <- true;
    Mutex.unlock t.lock;
    Iox.close_noerr t.wake_r;
    Iox.close_noerr t.wake_w
  end
