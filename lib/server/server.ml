module J = Prom_jsonx
module Iox = Prom_store.Iox
module Obs = Prom_obs
module Service = Prom.Service
module Telemetry = Prom.Telemetry
module Snapshot = Prom.Snapshot
module Detector = Prom.Detector
module Tenant = Prom.Tenant

type config = {
  port : int;
  max_batch : int;
  queue_capacity : int;
  tenant_capacity : int;
  quantum : int;
  max_body_bytes : int;
  max_connections : int;
  shards : int;
  idle_timeout_s : float;
}

let default_config =
  {
    port = 0;
    max_batch = 64;
    queue_capacity = 1024;
    tenant_capacity = 1024;
    quantum = 0;
    max_body_bytes = 4 * 1024 * 1024;
    max_connections = 256;
    shards = 1;
    idle_timeout_s = 30.0;
  }

let default_tenant = "default"
let tenant_capacity_env = "PROM_TENANT_CAPACITY"
let quantum_env = "PROM_TENANT_QUANTUM"

(* Environment overrides for the fair-share batching knobs, applied at
   [start] only to fields left at their [default_config] value — an
   explicit caller setting always wins over the environment. *)
let resolve_env config =
  let pick name current default ~lo =
    if current <> default then current
    else
      match Sys.getenv_opt name with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some v when v >= lo -> v
          | _ -> current)
      | None -> current
  in
  {
    config with
    tenant_capacity =
      pick tenant_capacity_env config.tenant_capacity
        default_config.tenant_capacity ~lo:1;
    quantum = pick quantum_env config.quantum default_config.quantum ~lo:1;
  }

(* Past the soft cap ([max_connections]) new connections are still
   accepted just long enough to read one request and answer 503; past
   the hard cap they are closed unanswered — the descriptor budget is
   the resource actually being protected at that point. *)
let overflow_headroom soft = Stdlib.max 64 (soft / 4)

(* How long a connection mid-request may stall the drain once [stop]
   has been called; idle keep-alive connections are closed immediately. *)
let drain_grace_s = 1.0

(* ------------------------------------------------------------------ *)
(* Per-connection state machine.

   Reading --(full request parsed)--> Inflight (predict) or straight to
   Writing (every other endpoint, and predict parse errors);
   Inflight --(batch completion via the shard's self-pipe)--> Writing;
   Writing --(response flushed)--> Reading (keep-alive) or closed.

   Readiness interest follows the phase: Reading polls readability,
   Writing polls writability once a flush hits EAGAIN, Inflight polls
   nothing (the wake pipe re-arms the writer). *)

type conn_phase = Reading | Inflight | Writing

type conn = {
  cfd : Unix.file_descr;
  creader : Http.reader;
  overflow : bool;
  mutable phase : conn_phase;
  mutable out : string;
  mutable out_off : int;
  mutable out_status : int;
  (* Tenant the request in flight resolved to; "" outside any tenant
     (metrics, healthz, unroutable paths). Labels the request counter
     when the response finishes. *)
  mutable out_tenant : string;
  mutable close_after : bool;
  mutable closed : bool;
  mutable last_active : float;
  (* Wall-clock start of the request currently being read/served;
     negative when no request has started. *)
  mutable req_t0 : float;
}

(* A queued response: everything needed to serialize once the event
   loop picks the completion up. *)
type reply = {
  r_status : int;
  r_ctype : string;
  r_body : string;
  r_extra : (string * string) list;
  r_keep : bool;
}

type shard = {
  sid : int;
  loop : Evloop.t;
  s_listen : Unix.file_descr;
  s_wake_r : Unix.file_descr;
  s_wake_w : Unix.file_descr;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  completions : (conn * reply) Queue.t;
  comp_lock : Mutex.t;
  mutable listen_open : bool;
  mutable last_sweep : float;
  mutable drain_t0 : float;
  mutable thread : Thread.t option;
}

type t = {
  config : config;
  tenants : Tenant.t;
  default : Tenant.slot;
  registry : Obs.registry;
  telemetry : Telemetry.t option;
  http : Telemetry.Http.http;
  (* Per-tenant metric handles, indexed by [Tenant.index] (the same
     dense index the batcher uses as the fairness key). *)
  tenant_metrics : Telemetry.Http.tenant array;
  batcher :
    ( Tenant.slot * (Prom_linalg.Vec.t * Prom_linalg.Vec.t),
      Detector.cls_verdict )
    Batcher.t;
  shards : shard array;
  bound_port : int;
  stopping : bool Atomic.t;
  open_conns : int Atomic.t;
  swap_lock : Mutex.t;
  stop_lock : Mutex.t;
  mutable stopped : bool;
}

let port t = t.bound_port

let service t =
  match Tenant.service t.default with
  | Some s -> s
  | None -> invalid_arg "Server.service: default tenant has no engine"

let tenants t = t.tenants

(* ------------------------------------------------------------------ *)
(* Request handling. Handlers return
   (status, content_type, body, extra_headers). *)

exception Reject of int * string

let err_obj msg = J.Obj [ ("error", J.Str msg) ]
let json_body obj = J.to_string obj ^ "\n"

let verdict_json (v : Detector.cls_verdict) =
  J.Obj
    [
      ("verdict", J.Str (if v.Detector.drifted then "reject" else "accept"));
      ("predicted", J.Num (float_of_int v.Detector.predicted));
      ("credibility", J.Num v.Detector.mean_credibility);
      ("confidence", J.Num v.Detector.mean_confidence);
      ("drifted", J.Bool v.Detector.drifted);
    ]

let parse_query ~dim ~n_classes j =
  let field name n =
    match Option.bind (J.member name j) J.float_array with
    | None ->
        raise
          (Reject (422, Printf.sprintf "missing or non-numeric %S array" name))
    | Some a when Array.length a <> n ->
        raise
          (Reject
             ( 422,
               Printf.sprintf "%S must have %d elements, got %d" name n
                 (Array.length a) ))
    | Some a -> a
  in
  (field "features" dim, field "proba" n_classes)

(* The JSON-parsing half of /predict; raises [Reject] on client errors.
   Submission happens asynchronously in the event loop. *)
let parse_predict service body =
  let j =
    match J.parse body with
    | Ok j -> j
    | Error m -> raise (Reject (400, "invalid JSON: " ^ m))
  in
  let dim, n_classes = Service.dims service in
  let parse_one q = parse_query ~dim ~n_classes q in
  let queries, batched =
    match J.member "queries" j with
    | Some (J.Arr items) -> (Array.of_list (List.map parse_one items), true)
    | Some _ -> raise (Reject (422, "\"queries\" must be an array"))
    | None -> ([| parse_one j |], false)
  in
  if Array.length queries = 0 then raise (Reject (422, "empty batch"));
  (queries, batched)

let unavailable ~keep msg =
  {
    r_status = 503;
    r_ctype = "application/json";
    r_body = json_body (err_obj msg);
    r_extra = [ ("Retry-After", "1") ];
    r_keep = keep;
  }

let predict_reply ~batched ~keep = function
  | Ok verdicts ->
      let body =
        if batched then
          J.Obj
            [
              ( "results",
                J.Arr (Array.to_list (Array.map verdict_json verdicts)) );
            ]
        else verdict_json verdicts.(0)
      in
      {
        r_status = 200;
        r_ctype = "application/json";
        r_body = json_body body;
        r_extra = [];
        r_keep = keep;
      }
  | Error `Overloaded -> unavailable ~keep "inference queue full"
  | Error `Shutdown -> unavailable ~keep:false "server shutting down"
  | Error (`Failed e) ->
      {
        r_status = 500;
        r_ctype = "application/json";
        r_body = json_body (err_obj ("inference failed: " ^ Printexc.to_string e));
        r_extra = [];
        r_keep = keep;
      }

(* Partition one shared batch round back into per-tenant sub-batches:
   each tenant's queries stay in submission order and run through that
   tenant's current engine, so a verdict is bit-identical to the same
   query evaluated against the tenant's service directly. *)
let run_round ?pool items =
  let n = Array.length items in
  let groups = ref [] in
  (* first-seen tenant order; indices accumulate reversed *)
  Array.iteri
    (fun i (slot, _) ->
      match List.assq_opt slot !groups with
      | Some idxs -> idxs := i :: !idxs
      | None -> groups := (slot, ref [ i ]) :: !groups)
    items;
  let out = Array.make n None in
  List.iter
    (fun (slot, idxs) ->
      let idxs = Array.of_list (List.rev !idxs) in
      let queries = Array.map (fun i -> snd items.(i)) idxs in
      let svc =
        match Tenant.service slot with
        | Some s -> s
        | None ->
            (* Unreachable from dispatch (submission requires a serving
               slot) — fail the round rather than invent a verdict. *)
            invalid_arg
              (Printf.sprintf "tenant %S has no serving engine"
                 (Tenant.name slot))
      in
      let verdicts = Service.evaluate_batch ?pool svc queries in
      Array.iteri (fun j i -> out.(i) <- Some verdicts.(j)) idxs)
    (List.rev !groups);
  Array.map (function Some v -> v | None -> assert false) out

let handle_metrics t =
  let text = Obs.Snapshot.to_prometheus (Obs.Snapshot.take t.registry) in
  (200, "text/plain; version=0.0.4", text, [])

let tenant_state_json slot =
  J.Obj
    [
      ("tenant", J.Str (Tenant.name slot));
      ("state", J.Str (Tenant.state_name (Tenant.state slot)));
      ("swaps", J.Num (float_of_int (Tenant.swaps slot)));
      ( "generation",
        J.Num
          (match Tenant.service slot with
          | Some s -> float_of_int (Service.generation s)
          | None -> -1.0) );
    ]

let handle_healthz t =
  let dim, n_classes = Service.dims (service t) in
  let body =
    J.Obj
      [
        ("status", J.Str "ok");
        ("feature_dim", J.Num (float_of_int dim));
        ("n_classes", J.Num (float_of_int n_classes));
        ("swaps", J.Num (float_of_int (Service.generation (service t))));
        ( "tenants",
          J.Arr (List.map tenant_state_json (Tenant.slots t.tenants)) );
      ]
  in
  (200, "application/json", json_body body, [])

let handle_tenant_healthz slot =
  (200, "application/json", json_body (tenant_state_json slot), [])

let retry_after_503 msg =
  (503, "application/json", json_body (err_obj msg), [ ("Retry-After", "1") ])

let handle_swap t slot =
  match Tenant.snapshot_dir slot with
  | None ->
      ( 409,
        "application/json",
        json_body (err_obj "no snapshot directory configured"),
        [] )
  | Some dir ->
      Mutex.lock t.swap_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.swap_lock)
        (fun () ->
          match
            Snapshot.load_latest ?telemetry:t.telemetry ~kind:Snapshot.kind_cls
              ~dir ()
          with
          | None ->
              (* Not a conflict: the directory is configured but holds
                 no loadable generation yet (or every generation is
                 corrupt). The snapshot writer may land one any moment,
                 so this is retryable — 503, distinct from the 409
                 configuration errors. *)
              retry_after_503 ("no loadable snapshot in " ^ dir)
          | Some (snap, info) -> (
              let swapped () =
                Tenant.count_swap slot;
                (match t.tenant_metrics.(Tenant.index slot) with
                | m -> Obs.Counter.inc m.Telemetry.Http.tn_swaps
                | exception Invalid_argument _ -> ());
                let body =
                  J.Obj
                    [
                      ("swapped", J.Bool true);
                      ("tenant", J.Str (Tenant.name slot));
                      ( "store_generation",
                        J.Num (float_of_int info.Prom_store.Store.generation) );
                      ( "swaps",
                        J.Num
                          (match Tenant.service slot with
                          | Some s -> float_of_int (Service.generation s)
                          | None -> 0.0) );
                    ]
                in
                (200, "application/json", json_body body, [])
              in
              match Tenant.service slot with
              | Some svc -> (
                  match
                    Service.swap
                      ~store_generation:info.Prom_store.Store.generation svc
                      snap
                  with
                  | () -> swapped ()
                  | exception Invalid_argument m ->
                      (409, "application/json", json_body (err_obj m), []))
              | None -> (
                  (* First snapshot for a Loading tenant: build the
                     engine and bring the slot Ready. *)
                  match Service.of_snapshot ?telemetry:t.telemetry snap with
                  | svc ->
                      Tenant.activate slot svc;
                      swapped ()
                  | exception Invalid_argument m ->
                      (409, "application/json", json_body (err_obj m), []))))

(* ------------------------------------------------------------------ *)
(* Routing. Tenant-scoped paths are [/t/<name>/...]; the bare segment
   is validated before any registry (let alone filesystem) lookup, so
   [.]/[..]/percent-escapes and every other traversal shape die here
   with 404. Unprefixed routes bind to the default tenant. *)

type route =
  | R_predict of Tenant.slot
  | R_swap of Tenant.slot
  | R_healthz_tenant of Tenant.slot
  | R_metrics
  | R_healthz
  | R_not_found
  | R_bad_method of string (* tenant label for the 405 *)

let split_tenant_path path =
  (* "/t/<seg>/<rest>" -> Some (seg, "/<rest>"); "/t/<seg>" -> Some (seg, "") *)
  let pfx = "/t/" in
  let lp = String.length pfx in
  if String.length path > lp && String.sub path 0 lp = pfx then
    let rest = String.sub path lp (String.length path - lp) in
    match String.index_opt rest '/' with
    | Some i ->
        Some (String.sub rest 0 i, String.sub rest i (String.length rest - i))
    | None -> Some (rest, "")
  else None

let route t meth path =
  match split_tenant_path path with
  | Some (seg, sub) -> (
      if not (Tenant.valid_name seg) then R_not_found
      else
        match Tenant.find t.tenants seg with
        | None -> R_not_found
        | Some slot -> (
            match (meth, sub) with
            | "POST", "/predict" -> R_predict slot
            | "POST", "/admin/swap" -> R_swap slot
            | "GET", "/healthz" -> R_healthz_tenant slot
            | _, ("/predict" | "/admin/swap" | "/healthz") ->
                R_bad_method (Tenant.name slot)
            | _ -> R_not_found))
  | None -> (
      match (meth, path) with
      | "POST", "/predict" -> R_predict t.default
      | "POST", "/admin/swap" -> R_swap t.default
      | "GET", "/metrics" -> R_metrics
      | "GET", "/healthz" -> R_healthz
      | _, ("/predict" | "/admin/swap") -> R_bad_method default_tenant
      | _, ("/metrics" | "/healthz") -> R_bad_method ""
      | _ -> R_not_found)

(* ------------------------------------------------------------------ *)
(* Event loop. One systhread per shard; each shard owns its listener
   (SO_REUSEPORT when sharded), its readiness table, its connection
   table and a self-pipe through which batch completions re-arm
   writers. *)

let set_conn_gauge t =
  Obs.Gauge.set
    (Telemetry.Http.open_connections t.http)
    (float_of_int (Atomic.get t.open_conns))

let observe t ~t0 ~tenant status =
  Obs.Counter.inc (Telemetry.Http.requests_total ~tenant t.http status);
  let dt = if t0 < 0.0 then 0.0 else Unix.gettimeofday () -. t0 in
  Obs.Histogram.observe (Telemetry.Http.request_seconds t.http) dt

let wake sh =
  try ignore (Unix.write sh.s_wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | EPIPE | EBADF), _, _) ->
    ()

let drain_wake sh =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read sh.s_wake_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  go ()

let close_conn t sh c =
  if not c.closed then begin
    c.closed <- true;
    Evloop.remove sh.loop c.cfd;
    Hashtbl.remove sh.conns c.cfd;
    Iox.close_noerr c.cfd;
    Atomic.decr t.open_conns;
    set_conn_gauge t
  end

(* Flush as much of the pending response as the socket will take.
   Partial writes arm write interest; completion observes the metrics
   and either resumes reading (keep-alive) or closes. *)
let rec flush_out t sh c =
  let len = String.length c.out - c.out_off in
  if len > 0 then
    match Unix.write_substring c.cfd c.out c.out_off len with
    | n ->
        c.out_off <- c.out_off + n;
        if n = len then finish_response t sh c
        else if n > 0 then flush_out t sh c
        else begin
          c.phase <- Writing;
          Evloop.set sh.loop c.cfd ~read:false ~write:true
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        c.phase <- Writing;
        Evloop.set sh.loop c.cfd ~read:false ~write:true
    | exception Unix.Unix_error (EINTR, _, _) -> flush_out t sh c
    | exception Unix.Unix_error _ ->
        (* Peer is gone (EPIPE/ECONNRESET): drop the connection; the
           response cannot be delivered so it is not observed either. *)
        close_conn t sh c
  else finish_response t sh c

and finish_response t sh c =
  observe t ~t0:c.req_t0 ~tenant:c.out_tenant c.out_status;
  c.req_t0 <- -1.0;
  c.out <- "";
  c.out_off <- 0;
  c.out_tenant <- "";
  if c.close_after || Atomic.get t.stopping then close_conn t sh c
  else begin
    c.phase <- Reading;
    c.last_active <- Unix.gettimeofday ();
    Evloop.set sh.loop c.cfd ~read:true ~write:false;
    (* Pipelined request already buffered: serve it now rather than
       waiting for a readiness event that may never come. *)
    if Http.buffered c.creader then parse_loop t sh c
  end

and respond t sh c (reply : reply) =
  c.out <-
    Http.serialize_response ~status:reply.r_status ~content_type:reply.r_ctype
      ~extra_headers:reply.r_extra ~keep_alive:reply.r_keep reply.r_body;
  c.out_off <- 0;
  c.out_status <- reply.r_status;
  c.close_after <- not reply.r_keep;
  c.phase <- Writing;
  Evloop.set sh.loop c.cfd ~read:false ~write:false;
  flush_out t sh c

and dispatch t sh c (req : Http.request) =
  let keep =
    Http.keep_alive req && (not (Atomic.get t.stopping)) && not c.overflow
  in
  let direct (status, ctype, body, extra) =
    respond t sh c
      {
        r_status = status;
        r_ctype = ctype;
        r_body = body;
        r_extra = extra;
        r_keep = keep;
      }
  in
  if c.overflow then
    (* Admission overflow: the request was still read (so the client's
       write never jams against an unread socket) and the 503 is fully
       accounted — counter and latency histogram both tick. *)
    respond t sh c
      {
        r_status = 503;
        r_ctype = "application/json";
        r_body = json_body (err_obj "too many connections");
        r_extra = [ ("Retry-After", "1") ];
        r_keep = false;
      }
  else
    match route t req.Http.meth req.Http.path with
    | R_predict slot -> (
        c.out_tenant <- Tenant.name slot;
        match Tenant.serving slot with
        | None ->
            let msg =
              match Tenant.state slot with
              | Tenant.Draining -> "tenant draining"
              | Tenant.Loading | Tenant.Ready -> "tenant loading"
            in
            respond t sh c (unavailable ~keep:false msg)
        | Some svc -> (
            match parse_predict svc req.Http.req_body with
            | exception Reject (status, msg) ->
                direct (status, "application/json", json_body (err_obj msg), [])
            | queries, batched ->
                c.phase <- Inflight;
                Evloop.set sh.loop c.cfd ~read:false ~write:false;
                let items = Array.map (fun q -> (slot, q)) queries in
                Batcher.submit_async ~key:(Tenant.index slot) t.batcher items
                  ~notify:(fun res ->
                    let reply = predict_reply ~batched ~keep res in
                    Mutex.lock sh.comp_lock;
                    let was_empty = Queue.is_empty sh.completions in
                    Queue.push (c, reply) sh.completions;
                    Mutex.unlock sh.comp_lock;
                    (* One wake byte per empty->nonempty transition is
                       enough: the shard drains the whole queue after
                       each pipe read, so later pushes ride the same
                       wakeup. *)
                    if was_empty then wake sh)))
    | R_swap slot ->
        c.out_tenant <- Tenant.name slot;
        direct (handle_swap t slot)
    | R_healthz_tenant slot ->
        c.out_tenant <- Tenant.name slot;
        direct (handle_tenant_healthz slot)
    | R_metrics -> direct (handle_metrics t)
    | R_healthz -> direct (handle_healthz t)
    | R_bad_method tenant ->
        c.out_tenant <- tenant;
        direct
          (405, "application/json", json_body (err_obj "method not allowed"), [])
    | R_not_found ->
        direct
          (404, "application/json", json_body (err_obj "not found"), [])

and parse_loop t sh c =
  if c.phase = Reading && not c.closed then begin
    if c.req_t0 < 0.0 && Http.buffered c.creader then
      c.req_t0 <- Unix.gettimeofday ();
    match Http.try_read_request ~max_body:t.config.max_body_bytes c.creader with
    | `Need_more -> ()
    | `Err `Eof -> close_conn t sh c
    | `Err (`Bad msg) ->
        respond t sh c
          {
            r_status = 400;
            r_ctype = "application/json";
            r_body = json_body (err_obj msg);
            r_extra = [];
            r_keep = false;
          }
    | `Err (`Too_large which) ->
        (* 431 when the request *head* overflows, 413 when the declared
           body does — clients can act on the distinction. *)
        let status, what =
          match which with
          | `Head -> (431, "request header fields too large")
          | `Body -> (413, "request body too large")
        in
        respond t sh c
          {
            r_status = status;
            r_ctype = "application/json";
            r_body = json_body (err_obj what);
            r_extra = [];
            r_keep = false;
          }
    | `Req req -> dispatch t sh c req
  end

let conn_readable t sh c =
  c.last_active <- Unix.gettimeofday ();
  match Http.fill_once c.creader with
  | `Again -> ()
  | `Eof | `Data _ -> if c.phase = Reading then parse_loop t sh c

let conn_writable t sh c = if c.phase = Writing then flush_out t sh c

let rec accept_burst t sh =
  if (not (Atomic.get t.stopping)) && sh.listen_open then
    match Unix.accept ~cloexec:true sh.s_listen with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) ->
        accept_burst t sh
    | exception Unix.Unix_error _ ->
        (* e.g. EMFILE — retry on the next readiness event rather than
           spinning. *)
        ()
    | fd, _addr ->
        let n = 1 + Atomic.fetch_and_add t.open_conns 1 in
        let soft = t.config.max_connections in
        if n > soft + overflow_headroom soft then begin
          Atomic.decr t.open_conns;
          Iox.close_noerr fd
        end
        else begin
          Unix.set_nonblock fd;
          (* Without TCP_NODELAY Nagle holds each small response until
             the client ACKs the previous one, and the client delays
             that ACK (~40 ms on Linux). Best effort: a socket that
             refuses the option still serves, just slower. *)
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          let c =
            {
              cfd = fd;
              creader = Http.reader fd;
              overflow = n > soft;
              phase = Reading;
              out = "";
              out_off = 0;
              out_status = 0;
              out_tenant = "";
              close_after = false;
              closed = false;
              last_active = Unix.gettimeofday ();
              req_t0 = -1.0;
            }
          in
          Hashtbl.replace sh.conns fd c;
          Evloop.set sh.loop fd ~read:true ~write:false;
          set_conn_gauge t;
          accept_burst t sh
        end

let drain_completions t sh =
  let pending = ref [] in
  Mutex.lock sh.comp_lock;
  while not (Queue.is_empty sh.completions) do
    pending := Queue.pop sh.completions :: !pending
  done;
  Mutex.unlock sh.comp_lock;
  List.iter
    (fun (c, reply) ->
      (* The connection may have died while the batch ran; replies to
         closed (or recycled-descriptor) connections are dropped. *)
      match Hashtbl.find_opt sh.conns c.cfd with
      | Some c' when c' == c && c.phase = Inflight -> respond t sh c reply
      | _ -> ())
    (List.rev !pending)

(* Timers: keep-alive idle timeout in steady state; during drain, close
   idle connections immediately and mid-request ones after a short
   grace. Runs at most once per second. *)
let sweep t sh ~now =
  let victims = ref [] in
  if Atomic.get t.stopping then begin
    if sh.drain_t0 < 0.0 then sh.drain_t0 <- now;
    if sh.listen_open then begin
      Evloop.remove sh.loop sh.s_listen;
      Iox.close_noerr sh.s_listen;
      sh.listen_open <- false
    end;
    Hashtbl.iter
      (fun _ c ->
        if
          c.phase = Reading
          && ((not (Http.buffered c.creader))
             || now -. sh.drain_t0 > drain_grace_s)
        then victims := c :: !victims)
      sh.conns
  end
  else if t.config.idle_timeout_s > 0.0 then
    Hashtbl.iter
      (fun _ c ->
        if c.phase = Reading && now -. c.last_active > t.config.idle_timeout_s
        then victims := c :: !victims)
      sh.conns;
  List.iter (fun c -> close_conn t sh c) !victims

let shard_loop t sh =
  Evloop.set sh.loop sh.s_listen ~read:true ~write:false;
  Evloop.set sh.loop sh.s_wake_r ~read:true ~write:false;
  let events = ref [] in
  let running = ref true in
  while !running do
    events := [];
    let nready =
      Evloop.wait sh.loop ~timeout_ms:100 (fun fd ~readable ~writable ~error ->
          events := (fd, readable, writable, error) :: !events)
    in
    let t_proc = Unix.gettimeofday () in
    List.iter
      (fun (fd, readable, writable, error) ->
        if fd = sh.s_wake_r then begin
          if readable then drain_wake sh
        end
        else if fd = sh.s_listen then begin
          if readable || error then accept_burst t sh
        end
        else
          match Hashtbl.find_opt sh.conns fd with
          | None -> ()
          | Some c -> (
              (* A handler bug must cost one connection, never the
                 shard. *)
              try
                if error then close_conn t sh c
                else begin
                  if writable then conn_writable t sh c;
                  if readable && not c.closed then conn_readable t sh c
                end
              with
              | Reject _ | Unix.Unix_error _ | Failure _ | Invalid_argument _
              ->
                close_conn t sh c))
      (List.rev !events);
    drain_completions t sh;
    (* One dispatcher wake per round, after every request this round
       read — including pipelined ones resumed by [drain_completions] —
       has been submitted, so they run as one batch. *)
    Batcher.flush t.batcher;
    let now = Unix.gettimeofday () in
    if Atomic.get t.stopping || now -. sh.last_sweep >= 1.0 then begin
      sh.last_sweep <- now;
      sweep t sh ~now
    end;
    if nready > 0 then
      Obs.Histogram.observe
        (Telemetry.Http.evloop_seconds t.http)
        (Unix.gettimeofday () -. t_proc);
    if Atomic.get t.stopping && Hashtbl.length sh.conns = 0 then
      running := false
  done;
  if sh.listen_open then begin
    Iox.close_noerr sh.s_listen;
    sh.listen_open <- false
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle. *)

let make_listener ~reuseport ~port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     if reuseport then Unix.setsockopt fd Unix.SO_REUSEPORT true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen fd 512;
     Unix.set_nonblock fd
   with e ->
     Iox.close_noerr fd;
     raise e);
  fd

let start ?(config = default_config) ?telemetry ?pool ?snapshot_dir ?tenants
    ?before_batch service =
  if config.shards < 1 then invalid_arg "Server.start: shards < 1";
  let config = resolve_env config in
  Iox.ignore_sigpipe ();
  let tenants =
    match tenants with Some r -> r | None -> Tenant.create ()
  in
  let default = Tenant.register ?snapshot_dir ~service tenants default_tenant in
  let registry =
    match telemetry with
    | Some tel -> Telemetry.registry tel
    | None -> Obs.create_registry ()
  in
  let http = Telemetry.Http.create registry in
  let slots = Tenant.slots tenants in
  let tenant_metrics =
    Array.of_list
      (List.map
         (fun slot -> Telemetry.Http.tenant_metrics http (Tenant.name slot))
         slots)
  in
  let batcher =
    Batcher.create ~max_batch:config.max_batch ~capacity:config.queue_capacity
      ~key_capacity:config.tenant_capacity
      ?quantum:(if config.quantum > 0 then Some config.quantum else None)
      ~on_depth:(fun d ->
        Obs.Gauge.set (Telemetry.Http.queue_depth http) (float_of_int d))
      ~on_key_depth:(fun key d ->
        if key >= 0 && key < Array.length tenant_metrics then
          Obs.Gauge.set
            tenant_metrics.(key).Telemetry.Http.tn_queue_depth
            (float_of_int d))
      ~on_batch:(fun n ->
        Obs.Histogram.observe (Telemetry.Http.batch_size http) (float_of_int n))
      ~on_share:(fun key taken ->
        if key >= 0 && key < Array.length tenant_metrics then
          Obs.Counter.add
            tenant_metrics.(key).Telemetry.Http.tn_batch_share
            (float_of_int taken))
      ?before_batch
      (fun items -> run_round ?pool items)
  in
  let reuseport = config.shards > 1 in
  let listeners = Array.make config.shards Unix.stdin in
  let bound_port =
    try
      listeners.(0) <- make_listener ~reuseport ~port:config.port;
      let bound =
        match Unix.getsockname listeners.(0) with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> config.port
      in
      for i = 1 to config.shards - 1 do
        listeners.(i) <- make_listener ~reuseport ~port:bound
      done;
      bound
    with e ->
      Array.iter
        (fun fd -> if fd != Unix.stdin then Iox.close_noerr fd)
        listeners;
      Batcher.shutdown batcher;
      raise e
  in
  let shards =
    Array.mapi
      (fun sid listen_fd ->
        let wake_r, wake_w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock wake_r;
        Unix.set_nonblock wake_w;
        {
          sid;
          loop = Evloop.create ();
          s_listen = listen_fd;
          s_wake_r = wake_r;
          s_wake_w = wake_w;
          conns = Hashtbl.create 256;
          completions = Queue.create ();
          comp_lock = Mutex.create ();
          listen_open = true;
          last_sweep = Unix.gettimeofday ();
          drain_t0 = -1.0;
          thread = None;
        })
      listeners
  in
  let t =
    {
      config;
      tenants;
      default;
      registry;
      telemetry;
      http;
      tenant_metrics;
      batcher;
      shards;
      bound_port;
      stopping = Atomic.make false;
      open_conns = Atomic.make 0;
      swap_lock = Mutex.create ();
      stop_lock = Mutex.create ();
      stopped = false;
    }
  in
  Array.iter
    (fun sh -> sh.thread <- Some (Thread.create (fun () -> shard_loop t sh) ()))
    shards;
  t

let stop t =
  Mutex.lock t.stop_lock;
  if t.stopped then Mutex.unlock t.stop_lock
  else begin
    t.stopped <- true;
    Mutex.unlock t.stop_lock;
    Atomic.set t.stopping true;
    (* Drain order: every tenant slot is marked Draining (new tenant
       work refused) before the listeners close and before the batcher
       shuts down, so in-flight batches finish against engines whose
       slots already refuse fresh submissions. *)
    List.iter Tenant.drain (Tenant.slots t.tenants);
    Array.iter wake t.shards;
    (* Shard loops exit once their connection tables drain (in-flight
       requests finish; idle connections are swept). The batcher stays
       up meanwhile so pending completions can land. *)
    Array.iter
      (fun sh -> match sh.thread with Some th -> Thread.join th | None -> ())
      t.shards;
    Batcher.shutdown t.batcher;
    Array.iter
      (fun sh ->
        Iox.close_noerr sh.s_wake_r;
        Iox.close_noerr sh.s_wake_w)
      t.shards
  end
