module Cell = Aging_cells.Cell

let max_inputs = 8

let of_cell (cell : Cell.t) =
  let k = List.length cell.Cell.inputs in
  let n_outs = List.length cell.Cell.outputs in
  if k > max_inputs then
    failwith
      (Printf.sprintf
         "Truth_table.of_cell: cell %s has %d inputs (tables support at most %d)"
         cell.Cell.name k max_inputs);
  Array.init (1 lsl k) (fun index ->
      let outs = cell.Cell.logic (List.init k (fun p -> (index lsr p) land 1 = 1)) in
      if List.length outs <> n_outs then
        failwith
          (Printf.sprintf
             "Truth_table.of_cell: cell %s logic returned %d outputs, declares %d"
             cell.Cell.name (List.length outs) n_outs);
      let mask = ref 0 in
      List.iteri (fun o v -> if v then mask := !mask lor (1 lsl o)) outs;
      !mask)
