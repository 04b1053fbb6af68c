(* Power-of-two latency histogram: bucket [i] counts samples [v] with
   [2^(i-1) < v <= 2^i] (bucket 0 counts v <= 0 and v = 1 lands in bucket
   1... see [bucket_of]). Fixed 48 buckets cover the whole int range on a
   64-bit host, so [add] never allocates. *)

let nbuckets = 48

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
}

let create () =
  { buckets = Array.make nbuckets 0; count = 0; sum = 0; vmin = max_int; vmax = min_int }

let bucket_of v =
  if v <= 0 then 0
  else
    let rec go i acc = if acc >= v then i else go (i + 1) (acc * 2) in
    Int.min (nbuckets - 1) (go 1 1)

(* inclusive upper bound of a bucket *)
let bucket_le i = if i = 0 then 0 else 1 lsl (i - 1)

let add t v =
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count
let min_value t = if t.count = 0 then 0 else t.vmin
let max_value t = if t.count = 0 then 0 else t.vmax

let copy t =
  {
    buckets = Array.copy t.buckets;
    count = t.count;
    sum = t.sum;
    vmin = t.vmin;
    vmax = t.vmax;
  }

(* [sub later earlier]: the histogram of samples recorded after [earlier]
   was snapshotted. min/max cannot be subtracted; keep [later]'s. *)
let sub later earlier =
  let buckets =
    Array.init nbuckets (fun i -> later.buckets.(i) - earlier.buckets.(i))
  in
  {
    buckets;
    count = later.count - earlier.count;
    sum = later.sum - earlier.sum;
    vmin = later.vmin;
    vmax = later.vmax;
  }

(* Approximate quantile from bucket boundaries: upper bound of the bucket
   containing the q-th sample, clamped into [min_value, max_value] so the
   bucket granularity never produces a value outside the observed range
   (a single sample of 5 lands in the (4, 8] bucket; every quantile of
   that histogram must still read 5, not 8). An empty histogram reads 0,
   and [q >= 1.0] is exactly the maximum — including for samples past the
   top bucket's boundary, where the bucket bound alone would under-report. *)
let quantile t q =
  if t.count = 0 then 0
  else if q >= 1.0 then max_value t
  else begin
    let rank = Int.max 1 (int_of_float (Float.of_int t.count *. q +. 0.5)) in
    let rec go i seen =
      if i >= nbuckets then max_value t
      else
        let seen = seen + t.buckets.(i) in
        if seen >= rank then
          Int.max (min_value t) (Int.min (bucket_le i) (max_value t))
        else go (i + 1) seen
    in
    go 0 0
  end

let to_json t =
  let buckets =
    Array.to_list t.buckets
    |> List.mapi (fun i n -> (i, n))
    |> List.filter (fun (_, n) -> n <> 0)
    |> List.map (fun (i, n) -> Json.Obj [ ("le", Json.Int (bucket_le i)); ("count", Json.Int n) ])
  in
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("sum", Json.Int t.sum);
      ("mean", Json.Float (mean t));
      ("min", Json.Int (min_value t));
      ("max", Json.Int (max_value t));
      ("p50", Json.Int (quantile t 0.5));
      ("p90", Json.Int (quantile t 0.9));
      ("p99", Json.Int (quantile t 0.99));
      ("buckets", Json.List buckets);
    ]
