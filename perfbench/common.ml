(* Shared plumbing of the benchmark: the run context, timing, order
   statistics, span helpers and the metric record every workload reports. *)

module Json = Aging_obs.Json
module Metrics = Aging_obs.Metrics
module Span = Aging_obs.Span

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Domains, server workers and client connections are each capped at the
   machine's core count, and at 2 (the size of the reference machine). *)
let jobs = max 1 (min 2 (Domain.recommended_domain_count ()))

(* One benchmark invocation.  [scratch] is a private directory inside the
   checkout: every cache the workloads build lives under it, so no run reads
   or writes the repository's own library caches. *)
type ctx = { seed : int64; seconds : float; scratch : string; mutable dirs : int }

let fresh_dir ctx =
  ctx.dirs <- ctx.dirs + 1;
  let dir = Filename.concat ctx.scratch (Printf.sprintf "c%d" ctx.dirs) in
  Sys.mkdir dir 0o755;
  dir

(* Work limit of a measured pass: the untraced pass runs for a wall-clock
   budget, the traced pass repeats exactly the units the untraced one did. *)
type budget = Seconds of float | Units of int

let continue_ budget ~units ~elapsed =
  match budget with Seconds s -> elapsed < s | Units n -> units < n

let now = Span.elapsed

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Every call the benchmark makes into a program layer runs inside a span
   [bench.<layer>.<op>]; the program's own spans nest inside it. *)
let in_layer layer op f = Span.with_ (Printf.sprintf "bench.%s.%s" layer op) f

(* ---- order statistics ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum = List.fold_left ( +. ) 0.

(* The tail of a sample: the highest percentile with at least 10 samples
   beyond it, i.e. the 11th-largest value, at percentile (n-10)/n.  Below
   11 samples no such percentile exists and the maximum stands in for it
   (reported as the 100th percentile). *)
type tail = { tail_value : float; tail_pct : float; tail_n : int }

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { tail_value = 0.; tail_pct = 0.; tail_n = 0 }
  else if n >= 11 then
    {
      tail_value = a.(n - 11);
      tail_pct = 100. *. float_of_int (n - 10) /. float_of_int n;
      tail_n = n;
    }
  else { tail_value = a.(n - 1); tail_pct = 100.; tail_n = n }

let ratio a b = if b = 0. then 0. else a /. b

(* ---- metrics registry reads (deltas since the pass reset it) ---- *)

let counter name = Option.value (Metrics.value_by_name name) ~default:0.

(* The same read from a snapshot taken when the measured pass ended, so the
   output checks that follow do not count. *)
let snap_counter snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Counter_value n) -> float_of_int n
  | Some (Metrics.Gauge_value g) -> g
  | Some (Metrics.Histogram_value h) -> float_of_int h.Metrics.hs_count
  | None -> 0.

(* ---- recorded spans ---- *)

let flatten roots =
  let acc = ref [] in
  let rec go (s : Span.t) =
    acc := s :: !acc;
    List.iter go s.Span.children
  in
  List.iter go roots;
  !acc

let durations spans name =
  List.filter_map
    (fun (s : Span.t) -> if s.Span.name = name then Some s.Span.duration else None)
    spans

(* ---- JSON file helpers (reference data) ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let json_float j =
  match Json.to_float j with
  | Some f -> f
  | None -> failwith "reference: expected a number"

let member_exn key j =
  match Json.member key j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "reference: missing key %S" key)

(* Relative closeness; equal infinities (a perfect PSNR) compare equal. *)
let close ~rel a b =
  a = b || Float.abs (a -. b) <= rel *. Float.max (Float.abs a) (Float.abs b)

(* Reference files are written with 8 significant digits, ample for the
   tolerances they are checked at, and one top-level entry per line. *)
let rec compact_json = function
  | Json.Float f when Float.is_finite f -> Printf.sprintf "%.8g" f
  | Json.List l -> "[" ^ String.concat "," (List.map compact_json l) ^ "]"
  | Json.Obj kv ->
    "{"
    ^ String.concat ",\n"
        (List.map (fun (k, v) -> Json.to_string (Json.String k) ^ ":" ^ compact_json v) kv)
    ^ "}"
  | j -> Json.to_string j
