open Tr_sim

let serve_all (ctx : 'msg Node_intf.ctx) =
  while ctx.pending () > 0 do
    ctx.serve ()
  done

module Traps = struct
  (* Banker's queue: [front] oldest first, [back] newest first. Ids are
     immediate ints, so [List.memq] is exact equality without a C call. *)
  type t = { front : int list; back : int list }

  let empty = { front = []; back = [] }
  let is_empty = function { front = []; back = [] } -> true | _ -> false
  let mem t r = List.memq r t.front || List.memq r t.back
  let push t r = if mem t r then t else { t with back = r :: t.back }

  let rec pop = function
    | { front = requester :: front; back } -> Some (requester, { front; back })
    | { front = []; back = [] } -> None
    | { front = []; back } -> pop { front = List.rev back; back = [] }

  let to_list t = t.front @ List.rev t.back
  let size t = List.length t.front + List.length t.back
end
