// Umbrella header for the observability layer: labeled metrics, the
// lock-free flight recorder and its spans, exporters, and OPE-health
// diagnostics.
#pragma once

#include "obs/diagnostics.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
