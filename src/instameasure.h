// Umbrella header: the whole InstaMeasure public API in one include.
//
//   #include "instameasure.h"
//
// Fine-grained headers remain available for consumers who want shorter
// compile times (see README "Architecture" for the module map).
#pragma once

// Core measurement plane.
#include "core/flow_regulator.h"
#include "core/instameasure.h"
#include "core/topk.h"
#include "core/wsaf_export.h"
#include "core/wsaf_table.h"

// Packet I/O.
#include "netio/codec.h"
#include "netio/flow_key.h"
#include "netio/ipfix.h"
#include "netio/packet.h"
#include "netio/pcap.h"
#include "netio/pcapng.h"

// Sketch substrate and comparison sketches.
#include "sketch/bloom.h"
#include "sketch/counter_tree.h"
#include "sketch/countmin.h"
#include "sketch/csm.h"
#include "sketch/hyperloglog.h"
#include "sketch/rcc.h"
#include "sketch/spacesaving.h"

// Multi-core runtime.
#include "runtime/multicore.h"
#include "runtime/spsc_queue.h"

// Workload synthesis, applications, analysis, baselines, memory model.
#include "analysis/ground_truth.h"
#include "analysis/latency.h"
#include "analysis/metrics.h"
#include "apps/superspreader.h"
#include "apps/traffic_stats.h"
#include "baselines/flowradar.h"
#include "baselines/netflow.h"
#include "delegation/pipeline.h"
#include "memmodel/memory_model.h"
#include "trace/generator.h"
#include "trace/trace_io.h"
