type t = { name : string; args : string list }

let v ?(args = []) name = { name; args }

let read item = v ~args:[ item ] "r"

let write item = v ~args:[ item ] "w"

let incr item = v ~args:[ item ] "inc"

let decr item = v ~args:[ item ] "dec"

let equal a b = String.equal a.name b.name && List.equal String.equal a.args b.args

let item l = match l.args with [] -> None | x :: _ -> Some x

let pp ppf l =
  match l.args with
  | [] -> Fmt.string ppf l.name
  | args -> Fmt.pf ppf "%s(%a)" l.name Fmt.(list ~sep:(any ",") string) args
