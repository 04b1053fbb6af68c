type t = Locks | Stm of Point.t

let all = Locks :: List.map (fun p -> Stm p) Point.all
let name = function Locks -> "locks" | Stm p -> Point.name p
let of_name s = List.find_opt (fun m -> String.equal (name m) s) all

let config = function
  | Locks -> Point.config (Point.v (Point.Eager Config.Incremental) Point.Weak)
  | Stm p -> Point.config p

let isolated = function Locks -> true | Stm p -> (Point.config p).Config.strong
