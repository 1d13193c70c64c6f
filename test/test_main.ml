let () =
  Alcotest.run "sfdd"
    [
      ("crypto", Suite_crypto.suite);
      ("relation", Suite_relation.suite);
      ("fdbase", Suite_fdbase.suite);
      ("oram", Suite_oram.suite);
      ("osort", Suite_osort.suite);
      ("datasets", Suite_datasets.suite);
      ("stats", Suite_stats.suite);
      ("core-methods", Suite_core_methods.suite);
      ("core-oblivious", Suite_core_oblivious.suite);
      ("core-dynamic", Suite_core_dynamic.suite);
      ("baseline", Suite_baseline.suite);
      ("recursive-oram", Suite_recursive_oram.suite);
      ("approx", Suite_approx.suite);
      ("remote", Suite_remote.suite);
      ("wire", Suite_wire.suite);
      ("omap", Suite_omap.suite);
      ("fastfds", Suite_fastfds.suite);
      ("lm-oram", Suite_lm_oram.suite);
      ("failure", Suite_failure.suite);
      ("bucket-sort", Suite_bucket_sort.suite);
      ("edge", Suite_edge.suite);
      ("service", Suite_service.suite);
      ("store", Suite_store.suite);
      ("lint", Suite_lint.suite);
    ]
