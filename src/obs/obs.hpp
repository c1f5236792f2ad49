// Umbrella header for parc::obs — tracing and trace analysis.
//
//   obs::TraceSession session;          // start recording (lock-free hooks
//   ... run ptask / pj / pool work ...  //  in both runtimes light up)
//   auto dump = session.end();          // collect per-thread event tracks
//
//   obs::write_chrome_trace(dump, file);        // open in Perfetto
//   auto graph = obs::extract_task_graph(dump); // recorded dependence graph
//   auto report = obs::critical_path(graph);    // T1, T∞, speedup bounds
//   sim::simulate(graph.to_dag(), machine);     // replay on a modelled host
//
//   auto table = sim::sweep(graph.to_dag(), {}); // one sweep surface
//   auto model = obs::model::fit_program(graph); // fitted scaling models
#pragma once

#include "obs/analysis.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/model.hpp"
#include "obs/trace.hpp"
