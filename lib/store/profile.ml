type op = Get | Put | Add | Rmw | Touch | Multi_get | Scan | Insert | Delete

let nontransactional = function
  | Get | Put | Add -> true
  | Rmw | Touch | Multi_get | Scan | Insert | Delete -> false

let op_name = function
  | Get -> "get"
  | Put -> "put"
  | Add -> "add"
  | Rmw -> "rmw"
  | Touch -> "touch"
  | Multi_get -> "multi_get"
  | Scan -> "scan"
  | Insert -> "insert"
  | Delete -> "delete"

type t = {
  pname : string;
  aliases : string list;
  pdescr : string;
  mix : (int * op) list;
}

let read_heavy =
  {
    pname = "read-heavy";
    aliases = [ "b" ];
    pdescr = "90% get / 5% multi-get / 5% rmw (YCSB B)";
    mix = [ (90, Get); (5, Multi_get); (5, Rmw) ];
  }

let update_heavy =
  {
    pname = "update-heavy";
    aliases = [ "a" ];
    pdescr = "50% get / 50% non-transactional put (YCSB A)";
    mix = [ (50, Get); (50, Put) ];
  }

let read_only =
  {
    pname = "read-only";
    aliases = [ "c" ];
    pdescr = "95% get / 5% multi-get (YCSB C)";
    mix = [ (95, Get); (5, Multi_get) ];
  }

let churn =
  {
    pname = "churn";
    aliases = [ "d" ];
    pdescr = "85% get / 10% insert / 5% delete (YCSB D-like)";
    mix = [ (85, Get); (10, Insert); (5, Delete) ];
  }

let scan_heavy =
  {
    pname = "scan-heavy";
    aliases = [ "e"; "scan" ];
    pdescr = "90% scan / 5% insert / 5% rmw (YCSB E-like)";
    mix = [ (90, Scan); (5, Insert); (5, Rmw) ];
  }

let rmw_mix =
  {
    pname = "rmw";
    aliases = [ "f" ];
    pdescr = "50% get / 50% transactional read-modify-write (YCSB F)";
    mix = [ (50, Get); (50, Rmw) ];
  }

let write_heavy =
  {
    pname = "write-heavy";
    aliases = [];
    pdescr = "10% get / 40% put / 40% rmw / 10% insert";
    mix = [ (10, Get); (40, Put); (40, Rmw); (10, Insert) ];
  }

let batch_mix =
  {
    pname = "batch";
    aliases = [];
    pdescr = "50% multi-get / 30% get / 20% rmw";
    mix = [ (50, Multi_get); (30, Get); (20, Rmw) ];
  }

let anomaly =
  {
    pname = "anomaly";
    aliases = [ "mixed-rmw" ];
    pdescr =
      "50% transactional value-preserving touch / 50% non-transactional \
       add: any drift in the key-sum is implementation-caused — the \
       Figure 6 lost-update/dirty-read anomalies under weak atomicity";
    mix = [ (50, Touch); (50, Add) ];
  }

let all =
  [
    read_heavy;
    update_heavy;
    read_only;
    churn;
    scan_heavy;
    rmw_mix;
    write_heavy;
    batch_mix;
    anomaly;
  ]

let of_string s =
  let s = String.lowercase_ascii s in
  List.find_opt
    (fun p -> String.lowercase_ascii p.pname = s || List.mem s p.aliases)
    all

let ops_of t = List.map snd t.mix

let counts_increments t =
  List.for_all
    (fun o ->
      match o with
      | Get | Multi_get | Scan | Rmw | Touch | Add -> true
      | Put | Insert | Delete -> false)
    (ops_of t)

let structural t =
  List.exists (fun o -> o = Insert || o = Delete) (ops_of t)
