(* The service layer: framing, protocol, bounded queue, chaos policy, and
   the full daemon — deadlines, shedding, drain, supervisor restarts —
   exercised in-process over real unix sockets. *)

module Json = Aging_obs.Json
module Metrics = Aging_obs.Metrics
module Span = Aging_obs.Span
module Flightrec = Aging_obs.Flightrec
module Frame = Aging_serve.Frame
module Protocol = Aging_serve.Protocol
module Bqueue = Aging_serve.Bqueue
module Chaos = Aging_serve.Chaos
module Openmetrics = Aging_obs.Openmetrics
module Server = Aging_serve.Server
module Metrics_http = Aging_serve.Metrics_http
module Client = Aging_serve.Client
module Soak = Aging_serve.Soak
module Dash = Aging_serve.Dash
module Queries = Aging_serve.Queries
module Scenario = Aging_physics.Scenario
module Rng = Aging_util.Rng
module Retry = Aging_util.Retry

let json_t =
  Alcotest.testable
    (fun fmt j -> Format.fprintf fmt "%s" (Json.to_string j))
    ( = )

let code_t =
  Alcotest.testable
    (fun fmt c ->
      Format.fprintf fmt "%s" (Protocol.error_code_to_string c))
    ( = )

(* ------------------------------ frame ------------------------------ *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let msg =
        Json.Obj [ ("op", Json.String "ping"); ("id", Json.Int 7) ]
      in
      Frame.write a msg;
      (match Frame.read b with
      | Ok got -> Alcotest.check json_t "roundtrip" msg got
      | Error e -> Alcotest.fail (Frame.error_to_string e));
      (* several frames back to back stay aligned *)
      Frame.write a (Json.Int 1);
      Frame.write a (Json.Int 2);
      Alcotest.(check bool) "first" true (Frame.read b = Ok (Json.Int 1));
      Alcotest.(check bool) "second" true (Frame.read b = Ok (Json.Int 2)))

let test_frame_oversized () =
  with_socketpair (fun a b ->
      Frame.write_raw a "\xff\xff\xff\xffBOOM";
      match Frame.read b with
      | Error (Frame.Oversized _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Oversized");
  with_socketpair (fun a b ->
      (* A length over the explicit cap is also rejected before allocating. *)
      Frame.write a (Json.String (String.make 64 'x'));
      match Frame.read ~max_frame:8 b with
      | Error (Frame.Oversized _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Oversized")

let test_frame_malformed_keeps_stream () =
  with_socketpair (fun a b ->
      Frame.write_raw a "\x00\x00\x00\x05hello";
      (match Frame.read b with
      | Error (Frame.Malformed _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Malformed");
      (* the stream is still frame-aligned after the bad payload *)
      Frame.write a (Json.String "ok");
      Alcotest.(check bool) "aligned" true
        (Frame.read b = Ok (Json.String "ok")))

let test_frame_closed () =
  with_socketpair (fun a b ->
      Unix.close a;
      (match Frame.read b with
      | Error Frame.Closed -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Closed"));
  with_socketpair (fun a b ->
      (* truncated frame: header promises more bytes than ever arrive *)
      Frame.write_raw a "\x00\x00\x00\x10{\"op\":";
      Unix.close a;
      match Frame.read b with
      | Error Frame.Closed -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Closed")

(* ----------------------------- protocol ----------------------------- *)

let test_protocol_roundtrip () =
  let corner = Scenario.corner ~lambda_p:0.37 ~lambda_n:0.61 in
  let meta =
    { Protocol.id = Some 5; deadline_s = Some 0.25;
      trace_id = Some "c1a2b-3" }
  in
  List.iter
    (fun req ->
      match Protocol.request_of_json (Protocol.request_to_json ~meta req) with
      | Ok (meta', req') ->
        Alcotest.(check bool)
          (Protocol.request_op req ^ " request") true (req' = req);
        Alcotest.(check bool)
          (Protocol.request_op req ^ " meta") true (meta' = meta)
      | Error msg -> Alcotest.fail msg)
    [
      Protocol.Ping; Protocol.Stats; Protocol.Health; Protocol.Shutdown;
      Protocol.Sleep 0.5; Protocol.Crash;
      Protocol.Guardband { design = "DSP"; corner };
      Protocol.Delay
        { cell = "INV_X1"; corner; slew = Some 1e-11; load = None };
    ];
  List.iter
    (fun resp ->
      match Protocol.response_of_json (Protocol.response_to_json ~id:3 resp) with
      | Ok (id, resp') ->
        Alcotest.(check bool) "response" true (resp' = resp);
        Alcotest.(check bool) "id" true (id = Some 3)
      | Error msg -> Alcotest.fail msg)
    [
      Protocol.Reply (Json.Obj [ ("x", Json.Int 1) ]);
      Protocol.Refused { code = Protocol.Overloaded; message = "full" };
      Protocol.Refused { code = Protocol.Timeout; message = "late" };
      Protocol.Refused { code = Protocol.Shutting_down; message = "bye" };
    ]

let test_protocol_rejects () =
  let bad json =
    match Protocol.request_of_json json with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "expected parse error"
  in
  bad (Json.Obj [ ("id", Json.Int 1) ]);
  bad (Json.Obj [ ("op", Json.String "fry") ]);
  bad (Json.Obj [ ("op", Json.String "sleep") ]);
  bad (Json.Obj [ ("op", Json.String "sleep"); ("seconds", Json.Float (-1.)) ]);
  bad (Json.Obj [ ("op", Json.String "guardband") ]);
  bad
    (Json.Obj
       [ ("op", Json.String "delay"); ("cell", Json.String "INV_X1");
         ("lambda_p", Json.Float 0.5) ])

(* ------------------------------ bqueue ------------------------------ *)

let test_bqueue_bounds () =
  let q = Bqueue.create ~cap:2 in
  Alcotest.(check bool) "push 1" true (Bqueue.try_push q 1 = `Ok);
  Alcotest.(check bool) "push 2" true (Bqueue.try_push q 2 = `Ok);
  Alcotest.(check bool) "full" true (Bqueue.try_push q 3 = `Full);
  Alcotest.(check bool) "fifo" true (Bqueue.pop q = Some 1);
  Alcotest.(check bool) "freed a slot" true (Bqueue.try_push q 4 = `Ok);
  Bqueue.close q;
  Alcotest.(check bool) "closed" true (Bqueue.try_push q 5 = `Closed);
  Alcotest.(check bool) "drains" true (Bqueue.pop q = Some 2);
  Alcotest.(check bool) "drains" true (Bqueue.pop q = Some 4);
  Alcotest.(check bool) "empty+closed" true (Bqueue.pop q = None);
  Alcotest.check_raises "cap >= 1"
    (Invalid_argument "Bqueue.create: cap must be >= 1") (fun () ->
      ignore (Bqueue.create ~cap:0))

let test_bqueue_blocking_pop () =
  let q = Bqueue.create ~cap:4 in
  let got = ref None in
  let consumer = Thread.create (fun () -> got := Bqueue.pop q) () in
  Unix.sleepf 0.02;
  Alcotest.(check bool) "consumer still blocked" true (!got = None);
  ignore (Bqueue.try_push q 42);
  Thread.join consumer;
  Alcotest.(check bool) "woken with the value" true (!got = Some 42)

(* ------------------------------ chaos ------------------------------ *)

let test_chaos_deterministic () =
  let policy =
    Chaos.validated
      { Chaos.kill_rate = 0.1; crash_rate = 0.2; slow_rate = 0.3;
        slow_s = 0.01; seed = 9 }
  in
  let decisions n = List.init n (fun i -> Chaos.decide policy ~request_id:i) in
  Alcotest.(check bool) "replayable" true (decisions 200 = decisions 200);
  let seen = decisions 200 in
  Alcotest.(check bool) "all actions occur at these rates" true
    (List.exists (fun a -> a = Chaos.Kill_worker) seen
    && List.exists (fun a -> a = Chaos.Crash_handler) seen
    && List.exists (fun a -> a = Chaos.Slow 0.01) seen
    && List.exists (fun a -> a = Chaos.Pass) seen);
  Alcotest.(check bool) "none passes everything" true
    (List.for_all (fun i -> Chaos.decide Chaos.none ~request_id:i = Chaos.Pass)
       (List.init 50 Fun.id));
  Alcotest.check_raises "rates validated"
    (Invalid_argument "Chaos: kill_rate must be in [0, 1]") (fun () ->
      ignore (Chaos.validated { Chaos.none with kill_rate = 1.5 }))

(* --------------------------- client backoff --------------------------- *)

(* Satellite requirement: the client's retry schedule is a pure function
   of the seed.  Run the same failing request twice with a recording
   sleep; the slept delays must match to the bit. *)
let test_client_backoff_deterministic () =
  let backoff =
    { Retry.base = 0.01; factor = 2.; cap = 0.05; jitter = 0.5;
      max_attempts = 5; budget = infinity }
  in
  let schedule seed =
    let slept = ref [] in
    let outcome =
      Client.request ~backoff ~rng:(Rng.create seed)
        ~sleep:(fun d -> slept := d :: !slept)
        (`Unix "no-such-socket.sock") Protocol.Ping
    in
    (List.rev !slept, outcome)
  in
  let s1, o1 = schedule 11L in
  let s2, _ = schedule 11L in
  let s3, _ = schedule 12L in
  Alcotest.(check (list (float 0.))) "same seed, same schedule" s1 s2;
  Alcotest.(check int) "slept between every attempt" 4 (List.length s1);
  Alcotest.(check bool) "different seed, different schedule" true (s1 <> s3);
  List.iteri
    (fun i d ->
      let undithered = Float.min 0.05 (0.01 *. (2. ** float_of_int i)) in
      Alcotest.(check bool) "within jitter band" true
        (d <= undithered && d >= undithered *. 0.5))
    s1;
  (match o1 with
  | Retry.Exhausted errors ->
    Alcotest.(check int) "all attempts failed" 5 (List.length errors);
    Alcotest.(check bool) "transport errors" true
      (List.for_all (function Client.Transport _ -> true | _ -> false) errors)
  | _ -> Alcotest.fail "expected Exhausted");
  (* non-retryable refusals must not consume the retry budget *)
  Alcotest.(check bool) "bad_request not retryable" false
    (Client.retryable (Client.Refused (Protocol.Bad_request, "")));
  Alcotest.(check bool) "overloaded retryable" true
    (Client.retryable (Client.Refused (Protocol.Overloaded, "")))

(* ------------------------------ server ------------------------------ *)

let sock_name =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "tserve-%d-%d.sock" (Unix.getpid ()) !n

let default_handler req =
  match req with
  | Protocol.Sleep s ->
    Unix.sleepf s;
    Ok (Json.Obj [ ("slept_s", Json.of_float s) ])
  | Protocol.Crash -> raise Chaos.Chaos_kill
  | _ -> Ok (Json.Obj [ ("ok", Json.Bool true) ])

let with_server ?(workers = 1) ?(queue_cap = 4) ?default_deadline
    ?(chaos = Chaos.none) ?stall_after_s ?metrics_port
    ?(handler = default_handler) f =
  let path = sock_name () in
  let cfg =
    {
      Server.default_config with
      addr = `Unix path;
      workers;
      queue_cap;
      default_deadline_s = default_deadline;
      chaos;
    }
  in
  let cfg =
    match stall_after_s with
    | None -> cfg
    | Some s -> { cfg with Server.stall_after_s = Some s }
  in
  let cfg =
    match metrics_port with
    | None -> cfg
    | Some p -> { cfg with Server.metrics_port = Some p }
  in
  let srv = Server.start ~handler cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.await srv;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f srv (`Unix path : Client.addr))

let call_on addr ?deadline_s req =
  match Client.connect addr with
  | Error e -> Error e
  | Ok conn ->
    Fun.protect
      ~finally:(fun () -> Client.close conn)
      (fun () -> Client.call ?deadline_s conn req)

let code_of = function
  | Error (Client.Refused (code, _)) -> Some code
  | Ok _ | Error _ -> None

let test_server_ping_stats () =
  with_server (fun _srv addr ->
      (match call_on addr Protocol.Ping with
      | Ok (Json.Obj fields) ->
        Alcotest.(check bool) "pong" true
          (List.assoc_opt "pong" fields = Some (Json.Bool true))
      | Ok _ -> Alcotest.fail "unexpected ping payload"
      | Error e -> Alcotest.fail (Client.error_to_string e));
      match call_on addr Protocol.Stats with
      | Ok stats ->
        Alcotest.(check bool) "running" true
          (Json.member "state" stats = Some (Json.String "running"));
        Alcotest.(check bool) "queue cap reported" true
          (Json.member "queue_cap" stats = Some (Json.Int 4));
        Alcotest.(check bool) "metrics attached" true
          (Json.member "metrics" stats <> None)
      | Error e -> Alcotest.fail (Client.error_to_string e))

let test_server_deadline_timeout () =
  with_server (fun _srv addr ->
      let t0 = Unix.gettimeofday () in
      let r = call_on addr ~deadline_s:0.08 (Protocol.Sleep 0.5) in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check (option code_t)) "typed timeout" (Some Protocol.Timeout)
        (code_of r);
      Alcotest.(check bool) "answered near the deadline, not the sleep" true
        (elapsed < 0.4))

let test_server_queued_job_cancelled () =
  with_server (fun _srv addr ->
      (* One worker is pinned by a long job; the queued job's deadline
         expires while it waits and the reaper must answer it — the
         client cannot be serialized behind the sleeper. *)
      let blocker =
        Thread.create (fun () -> call_on addr (Protocol.Sleep 0.3)) ()
      in
      Unix.sleepf 0.05;
      let t0 = Unix.gettimeofday () in
      let r = call_on addr ~deadline_s:0.05 (Protocol.Sleep 0.3) in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check (option code_t)) "typed timeout" (Some Protocol.Timeout)
        (code_of r);
      Alcotest.(check bool) "cancelled while queued" true (elapsed < 0.2);
      Thread.join blocker)

let test_server_overload_sheds () =
  with_server ~workers:1 ~queue_cap:1 (fun _srv addr ->
      let slow () = Thread.create (fun () -> call_on addr (Protocol.Sleep 0.3)) () in
      let t1 = slow () in
      Unix.sleepf 0.05;
      (* worker busy *)
      let t2 = slow () in
      Unix.sleepf 0.05;
      (* queue now holds one job; the next must shed, not hang *)
      let t0 = Unix.gettimeofday () in
      let r = call_on addr (Protocol.Sleep 0.1) in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check (option code_t)) "typed overloaded"
        (Some Protocol.Overloaded) (code_of r);
      Alcotest.(check bool) "immediate refusal" true (elapsed < 0.1);
      Thread.join t1;
      Thread.join t2)

let test_server_drain_completes_inflight () =
  let inflight_result = ref (Error (Client.Transport "never ran")) in
  with_server (fun srv addr ->
      let worker_th =
        Thread.create
          (fun () -> inflight_result := call_on addr (Protocol.Sleep 0.25))
          ()
      in
      Unix.sleepf 0.08;
      (* request drain while the job runs; an existing connection must be
         refused with the typed drain code, not a hang or a reset *)
      Server.stop srv;
      Unix.sleepf 0.05;
      let refused = call_on addr (Protocol.Sleep 0.01) in
      Alcotest.(check bool) "new work refused during drain" true
        (code_of refused = Some Protocol.Shutting_down
        || (match refused with Error (Client.Transport _) -> true | _ -> false));
      Server.await srv;
      Thread.join worker_th;
      (match !inflight_result with
      | Ok _ -> ()
      | Error e ->
        Alcotest.fail ("in-flight request dropped: " ^ Client.error_to_string e));
      Alcotest.(check bool) "server stopped" true (not (Server.running srv)))

let test_server_supervisor_restarts () =
  with_server (fun srv addr ->
      let restarts0 = Server.worker_restarts srv in
      (match call_on addr Protocol.Crash with
      | Error (Client.Refused (Protocol.Internal, _)) -> ()
      | r ->
        Alcotest.fail
          (match r with
          | Ok _ -> "crash replied ok"
          | Error e -> Client.error_to_string e));
      (* the replacement worker must pick up the next queued job *)
      (match call_on addr (Protocol.Sleep 0.01) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Client.error_to_string e));
      Alcotest.(check bool) "supervisor restarted the worker" true
        (Server.worker_restarts srv > restarts0))

let test_server_survives_corrupt_frames () =
  with_server (fun _srv addr ->
      let path = match addr with `Unix p -> p | `Tcp _ -> assert false in
      (* bogus length prefix: typed bad_request, then hang-up *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Frame.write_raw fd "\xff\xff\xff\xffBOOM";
      (match Frame.read fd with
      | Ok reply -> begin
        match Protocol.response_of_json reply with
        | Ok (_, Protocol.Refused { code = Protocol.Bad_request; _ }) -> ()
        | _ -> Alcotest.fail "expected bad_request refusal"
      end
      | Error e -> Alcotest.fail (Frame.error_to_string e));
      Alcotest.(check bool) "connection closed after broken framing" true
        (Frame.read fd = Error Frame.Closed);
      Unix.close fd;
      (* malformed payload: refused, but the connection stays usable *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Frame.write_raw fd "\x00\x00\x00\x05hello";
      (match Frame.read fd with
      | Ok reply -> begin
        match Protocol.response_of_json reply with
        | Ok (_, Protocol.Refused { code = Protocol.Bad_request; _ }) -> ()
        | _ -> Alcotest.fail "expected bad_request refusal"
      end
      | Error e -> Alcotest.fail (Frame.error_to_string e));
      Frame.write fd (Protocol.request_to_json Protocol.Ping);
      (match Frame.read fd with
      | Ok reply -> begin
        match Protocol.response_of_json reply with
        | Ok (_, Protocol.Reply _) -> ()
        | _ -> Alcotest.fail "ping after malformed frame should succeed"
      end
      | Error e -> Alcotest.fail (Frame.error_to_string e));
      Unix.close fd;
      (* the server still serves normal clients *)
      match call_on addr Protocol.Ping with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Client.error_to_string e))

(* --------------------- tracing and phase accounting --------------------- *)

(* One worker pinned by a long sleep; the next request waits in the queue,
   then executes.  The per-op latency histograms must attribute the wait
   to queue_ms and the handler run to exec_ms.  Assertions run after
   [with_server] returns — [Server.await] has joined the workers, so every
   reply's phase accounting has landed. *)
let test_server_phase_accounting () =
  Metrics.reset ();
  with_server (fun _srv addr ->
      let blocker =
        Thread.create (fun () -> call_on addr (Protocol.Sleep 0.25)) ()
      in
      Unix.sleepf 0.05;
      (match call_on addr (Protocol.Sleep 0.05) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Client.error_to_string e));
      Thread.join blocker);
  let h phase =
    Metrics.histogram (Printf.sprintf "serve.latency.sleep.%s_ms" phase)
  in
  Alcotest.(check int) "both sleeps in total_ms" 2
    (Metrics.histogram_count (h "total"));
  Alcotest.(check int) "both sleeps in queue_ms" 2
    (Metrics.histogram_count (h "queue"));
  Alcotest.(check int) "both sleeps in exec_ms" 2
    (Metrics.histogram_count (h "exec"));
  let queue_ms = Metrics.histogram_sum (h "queue") in
  let exec_ms = Metrics.histogram_sum (h "exec") in
  let total_ms = Metrics.histogram_sum (h "total") in
  Alcotest.(check bool) "queued request's wait lands in queue_ms" true
    (queue_ms >= 100.);
  Alcotest.(check bool) "handler runs land in exec_ms" true (exec_ms >= 200.);
  Alcotest.(check bool) "phases telescope into the total" true
    (queue_ms +. exec_ms <= total_ms +. 1.);
  Alcotest.(check int) "\"all\" pseudo-op aggregates" 2
    (Metrics.histogram_count (Metrics.histogram "serve.latency.all.total_ms"))

(* With span recording on, a traced request leaves a [serve.req.<op>] root
   tagged with the client's trace id and queue/exec phase children. *)
let test_server_request_spans () =
  Span.reset ();
  Span.set_recording true;
  Fun.protect ~finally:(fun () -> Span.set_recording false) @@ fun () ->
  with_server (fun _srv addr ->
      match Client.connect addr with
      | Error e -> Alcotest.fail (Client.error_to_string e)
      | Ok conn ->
        Fun.protect
          ~finally:(fun () -> Client.close conn)
          (fun () ->
            match
              Client.call ~trace_id:"t-span" conn (Protocol.Sleep 0.02)
            with
            | Ok _ -> ()
            | Error e -> Alcotest.fail (Client.error_to_string e)));
  match
    List.find_opt
      (fun (s : Span.t) -> s.Span.name = "serve.req.sleep")
      (Span.roots ())
  with
  | None -> Alcotest.fail "no serve.req.sleep span recorded"
  | Some s ->
    Alcotest.(check (option string)) "trace attr" (Some "t-span")
      (List.assoc_opt "trace" s.Span.attrs);
    Alcotest.(check (option string)) "result attr" (Some "ok")
      (List.assoc_opt "result" s.Span.attrs);
    let names = List.map (fun (c : Span.t) -> c.Span.name) s.Span.children in
    Alcotest.(check bool) "queue and exec phase children" true
      (List.mem "serve.phase.queue" names
      && List.mem "serve.phase.exec" names);
    let exec =
      List.find
        (fun (c : Span.t) -> c.Span.name = "serve.phase.exec")
        s.Span.children
    in
    Alcotest.(check bool) "exec phase covers the handler run" true
      (exec.Span.duration >= 0.015)

(* The flight recorder is always on: a served request leaves admitted /
   started events carrying its trace id, and [dump_flight] returns them
   over the wire without stopping the server. *)
let test_server_dump_flight () =
  Flightrec.clear Flightrec.global;
  with_server (fun srv addr ->
      (match Client.connect addr with
      | Error e -> Alcotest.fail (Client.error_to_string e)
      | Ok conn ->
        Fun.protect
          ~finally:(fun () -> Client.close conn)
          (fun () ->
            match
              Client.call ~trace_id:"t-flight" conn (Protocol.Sleep 0.01)
            with
            | Ok _ -> ()
            | Error e -> Alcotest.fail (Client.error_to_string e)));
      (match call_on addr Protocol.Dump_flight with
      | Error e -> Alcotest.fail (Client.error_to_string e)
      | Ok dump ->
        let events =
          match Json.member "events" dump with
          | Some (Json.List l) -> l
          | _ -> []
        in
        Alcotest.(check bool) "flight dump has events" true (events <> []);
        let kinds =
          List.filter_map
            (fun ev ->
              match Json.member "kind" ev with
              | Some (Json.String k) -> Some k
              | _ -> None)
            events
        in
        List.iter
          (fun k ->
            Alcotest.(check bool) (k ^ " recorded") true (List.mem k kinds))
          [ "serve.started"; "req.admitted"; "req.started" ];
        Alcotest.(check bool) "events carry the trace id" true
          (List.exists
             (fun ev ->
               match Json.member "fields" ev with
               | Some fields ->
                 Json.member "trace" fields = Some (Json.String "t-flight")
               | None -> false)
             events));
      Alcotest.(check bool) "server still running after dump" true
        (Server.running srv))

(* --------------------------- runtime health --------------------------- *)

(* A quiet server answers [Health] inline with a clean verdict. *)
let test_server_health_ok () =
  with_server (fun srv addr ->
      (match call_on addr Protocol.Health with
      | Error e -> Alcotest.fail (Client.error_to_string e)
      | Ok j -> (
        match Dash.of_health_json j with
        | Error msg -> Alcotest.fail msg
        | Ok h ->
          Alcotest.(check string) "clean verdict" "ok" h.Dash.status;
          Alcotest.(check int) "no stalled workers" 0 h.Dash.stalled_workers));
      (* the typed view parses the server's own JSON too *)
      match Dash.of_health_json (Server.health_json srv) with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg)

(* Chaos slows every queued request well past the stall budget: the
   reaper's watchdog must flag the worker while it is stuck (health
   degrades with a [worker_stalled] reason), and the cumulative
   [stalled_total] must keep the evidence after the worker recovers. *)
let test_server_watchdog_flags_stall () =
  let chaos =
    Chaos.validated { Chaos.none with Chaos.slow_rate = 1.0; slow_s = 0.4 }
  in
  with_server ~chaos ~stall_after_s:0.08 (fun srv addr ->
      let victim =
        Thread.create (fun () -> ignore (call_on addr (Protocol.Sleep 0.01))) ()
      in
      (* give the job time to start and outlive the 80 ms budget *)
      Unix.sleepf 0.25;
      (match Dash.of_health_json (Server.health_json srv) with
      | Error msg -> Alcotest.fail msg
      | Ok h ->
        Alcotest.(check bool) "health degrades during the stall" true
          (h.Dash.status <> "ok");
        Alcotest.(check bool) "watchdog counts the stuck worker" true
          (h.Dash.stalled_workers >= 1);
        Alcotest.(check bool) "reason names worker_stalled" true
          (List.exists
             (fun (r : Dash.reason) -> r.Dash.code = "worker_stalled")
             h.Dash.reasons));
      Thread.join victim;
      Unix.sleepf 0.05;
      (* after recovery, the live flag clears but the counter remembers *)
      match call_on addr Protocol.Health with
      | Error e -> Alcotest.fail (Client.error_to_string e)
      | Ok j -> (
        match Dash.of_health_json j with
        | Error msg -> Alcotest.fail msg
        | Ok h ->
          Alcotest.(check bool) "stall recorded cumulatively" true
            (h.Dash.stalled_total >= 1)))

(* [metrics_port = Some 0] starts the exposition listener on an
   ephemeral port; a live scrape must come back as valid OpenMetrics
   carrying the serve counters and runtime gauges, and [/health] must
   serve the verdict as JSON. *)
let test_server_metrics_scrape () =
  with_server ~metrics_port:0 (fun srv addr ->
      ignore (call_on addr Protocol.Ping);
      match Server.metrics_port srv with
      | None -> Alcotest.fail "metrics listener did not start"
      | Some port ->
        (match Metrics_http.fetch ~port ~path:"/metrics" with
        | Error e -> Alcotest.fail ("scrape failed: " ^ e)
        | Ok body -> (
          match Openmetrics.parse body with
          | Error e -> Alcotest.fail ("scrape does not parse: " ^ e)
          | Ok samples ->
            Alcotest.(check bool) "request counter exposed" true
              (match Openmetrics.find samples "serve_requests_total" with
              | Some v -> v >= 1.
              | None -> false);
            Alcotest.(check bool) "runtime gauges exposed at scrape time" true
              (Openmetrics.find samples "runtime_gc_heap_mb" <> None)));
        (match Metrics_http.fetch ~port ~path:"/health" with
        | Error e -> Alcotest.fail ("health fetch failed: " ^ e)
        | Ok body -> (
          match Dash.of_health_json (Json.of_string body) with
          | Error msg -> Alcotest.fail msg
          | Ok h ->
            Alcotest.(check string) "healthy over HTTP" "ok" h.Dash.status));
        match Metrics_http.fetch ~port ~path:"/nope" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "unknown path should not 200")

(* ------------------------------- dash ------------------------------- *)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_dash_snapshot () =
  let pct c p50 p95 p99 =
    Json.Obj
      [ ("count", Json.Int c); ("p50", Json.of_float p50);
        ("p95", Json.of_float p95); ("p99", Json.of_float p99) ]
  in
  let snap_json =
    Json.Obj
      [
        ("state", Json.String "running");
        ("uptime_s", Json.Float 12.5);
        ("workers", Json.Int 2);
        ("queue_length", Json.Int 1);
        ("queue_cap", Json.Int 8);
        ("inflight", Json.Int 2);
        ( "metrics",
          (* the {"type","value"} entry shape of Metrics.to_json *)
          let ctr n =
            Json.Obj
              [ ("type", Json.String "counter"); ("value", Json.Int n) ]
          in
          Json.Obj
            [
              ("serve.requests", ctr 100);
              ("serve.replies_ok", ctr 90);
              ("serve.refused_timeout", ctr 10);
              ("serve.worker_restarts", ctr 1);
              ("serve.connections", ctr 7);
            ] );
        ( "latency",
          Json.Obj
            [
              ( "sleep",
                Json.Obj
                  [
                    ("queue_ms", pct 5 1. 2. 3.);
                    ("exec_ms", pct 5 50. 60. 70.);
                    ("total_ms", pct 5 51. 62. 73.);
                  ] );
              ("all", Json.Obj [ ("total_ms", pct 6 10. 60. 70.) ]);
              (* An empty histogram must be filtered out of the table. *)
              ("ping", Json.Obj [ ("total_ms", pct 0 0. 0. 0.) ]);
            ] );
      ]
  in
  (match Dash.of_stats_json snap_json with
  | Error msg -> Alcotest.fail msg
  | Ok snap ->
    Alcotest.(check string) "state" "running" snap.Dash.state;
    Alcotest.(check int) "workers" 2 snap.Dash.workers;
    Alcotest.(check int) "queue" 1 snap.Dash.queue_length;
    Alcotest.(check int) "inflight" 2 snap.Dash.inflight;
    Alcotest.(check int) "requests counter" 100 snap.Dash.requests;
    Alcotest.(check (list (pair string int))) "only refusals seen"
      [ ("timeout", 10) ]
      snap.Dash.refused;
    Alcotest.(check (list string)) "\"all\" first, empty ops dropped"
      [ "all"; "sleep" ]
      (List.map (fun l -> l.Dash.op) snap.Dash.latency);
    let sleep = List.nth snap.Dash.latency 1 in
    Alcotest.(check bool) "queue percentiles parsed" true
      (match sleep.Dash.queue with
      | Some p -> p.Dash.p95 = 2.
      | None -> false);
    let prev = { snap with Dash.replies_ok = 40 } in
    Alcotest.(check (float 1e-9)) "qps from two snapshots" 10.
      (Dash.qps ~prev ~dt:5. snap);
    let screen = Dash.render ~qps:10. snap in
    Alcotest.(check bool) "render shows the header" true
      (contains screen "relaware top");
    Alcotest.(check bool) "render shows the op rows" true
      (contains screen "sleep"));
  match Dash.of_stats_json (Json.Obj []) with
  | Error msg ->
    Alcotest.(check bool) "error names the missing field" true
      (contains msg "state")
  | Ok _ -> Alcotest.fail "expected parse error on empty stats"

let test_dash_of_live_stats () =
  with_server (fun _srv addr ->
      ignore (call_on addr Protocol.Ping);
      match call_on addr Protocol.Stats with
      | Error e -> Alcotest.fail (Client.error_to_string e)
      | Ok stats -> (
        match Dash.of_stats_json stats with
        | Error msg -> Alcotest.fail msg
        | Ok snap ->
          Alcotest.(check string) "live state" "running" snap.Dash.state;
          Alcotest.(check int) "live queue cap" 4 snap.Dash.queue_cap;
          Alcotest.(check bool) "live requests counted" true
            (snap.Dash.requests >= 1);
          Alcotest.(check bool) "live latency summary present" true
            (List.exists (fun l -> l.Dash.op = "all") snap.Dash.latency)))

(* In-process chaos soak: saturating concurrent clients against an
   injected-fault server must end with the server alive and clients
   having succeeded through retries — graceful degradation, not a crash
   or deadlock.  The forked multi-process version runs in @serve-smoke. *)
let test_soak_degrades_gracefully () =
  let chaos =
    Chaos.validated
      { Chaos.kill_rate = 0.02; crash_rate = 0.05; slow_rate = 0.1;
        slow_s = 0.03; seed = 5 }
  in
  with_server ~workers:2 ~queue_cap:4 ~chaos (fun srv addr ->
      let report =
        Soak.run
          {
            (Soak.default ~addr) with
            clients = 4;
            duration_s = 0.5;
            deadline_s = 0.1;
            corrupt_rate = 0.1;
            heavy_rate = 0.3;
            sleep_s = 0.05;
            seed = 17;
          }
      in
      Alcotest.(check bool) "server alive after the storm" true
        report.Soak.server_alive;
      Alcotest.(check bool) "clients succeeded through retries" true
        (report.Soak.ok > 0);
      Alcotest.(check bool) "still accepting work" true (Server.running srv))

(* ----------------------------- queries ----------------------------- *)

(* Two worker domains whose first requests overlap both force the lazily
   built design catalog; each must get its proper reply rather than a
   [CamlinternalLazy.Undefined] (re-raised by [Domain.join]).  Repeated
   with a fresh handler so the two first uses overlap more than once. *)
let test_queries_concurrent_first_use () =
  for _ = 1 to 4 do
    let q =
      Queries.create ~backend:Aging_liberty.Characterize.Analytic
        ~axes:Aging_liberty.Axes.coarse ()
    in
    let ready = Atomic.make 0 in
    let query () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      Queries.handle q
        (Protocol.Guardband { design = "NO-SUCH"; corner = Scenario.worst_case })
    in
    let a = Domain.spawn query and b = Domain.spawn query in
    List.iter
      (function
        | Error (code, msg) ->
          Alcotest.check code_t "unknown design" Protocol.Bad_request code;
          Alcotest.(check bool) "reply lists the catalog" true
            (contains msg "DCT")
        | Ok _ -> Alcotest.fail "unknown design answered")
      [ Domain.join a; Domain.join b ]
  done

let suite =
  [
    ("frame: roundtrip", `Quick, test_frame_roundtrip);
    ("frame: oversized rejected", `Quick, test_frame_oversized);
    ("frame: malformed keeps stream", `Quick, test_frame_malformed_keeps_stream);
    ("frame: closed", `Quick, test_frame_closed);
    ("protocol: roundtrip", `Quick, test_protocol_roundtrip);
    ("protocol: rejects bad requests", `Quick, test_protocol_rejects);
    ("bqueue: bounds and close", `Quick, test_bqueue_bounds);
    ("bqueue: blocking pop", `Quick, test_bqueue_blocking_pop);
    ("chaos: deterministic decisions", `Quick, test_chaos_deterministic);
    ("client: backoff schedule deterministic", `Quick,
     test_client_backoff_deterministic);
    ("server: ping and stats inline", `Quick, test_server_ping_stats);
    ("server: deadline expiry is a typed timeout", `Quick,
     test_server_deadline_timeout);
    ("server: queued job cancelled at deadline", `Quick,
     test_server_queued_job_cancelled);
    ("server: full queue sheds with overloaded", `Quick,
     test_server_overload_sheds);
    ("server: graceful drain completes in-flight", `Quick,
     test_server_drain_completes_inflight);
    ("server: supervisor restarts crashed workers", `Quick,
     test_server_supervisor_restarts);
    ("server: survives corrupt frames", `Quick,
     test_server_survives_corrupt_frames);
    ("server: queue/exec phase accounting", `Quick,
     test_server_phase_accounting);
    ("server: traced requests leave phase spans", `Quick,
     test_server_request_spans);
    ("server: dump_flight over the wire", `Quick, test_server_dump_flight);
    ("server: health reports ok when quiet", `Quick, test_server_health_ok);
    ("server: watchdog flags a stalled worker", `Quick,
     test_server_watchdog_flags_stall);
    ("server: live /metrics scrape parses", `Quick,
     test_server_metrics_scrape);
    ("queries: concurrent first use", `Quick, test_queries_concurrent_first_use);
    ("dash: parses a captured stats snapshot", `Quick, test_dash_snapshot);
    ("dash: parses live stats", `Quick, test_dash_of_live_stats);
    ("soak: degrades gracefully under chaos", `Quick,
     test_soak_degrades_gracefully);
  ]
