type family = {
  fam_name : string;
  fam_descr : string;
  members : Workload.t list;
}

let families =
  [
    {
      fam_name = "tsp";
      fam_descr = "branch-and-bound travelling salesman (Figure 18)";
      members = [ Tsp.tsp ];
    };
    {
      fam_name = "oo7";
      fam_descr = "OO7-like object-graph traversal (Figure 19)";
      members = [ Oo7.oo7 ];
    };
    {
      fam_name = "jbb";
      fam_descr = "JBB-like warehouse order processing (Figure 20)";
      members = [ Jbb.jbb ];
    };
    {
      fam_name = "jvm98";
      fam_descr =
        "single-threaded JVM98-like kernels for barrier overhead (Figures \
         15-17)";
      members = Jvm98.all;
    };
  ]
