#ifndef CATMARK_CORE_CATMARK_H_
#define CATMARK_CORE_CATMARK_H_

/// Umbrella header: the full public API of the categorical-data
/// watermarking library (Sion, "Proving Ownership over Categorical Data",
/// ICDE 2004). Examples and most applications only need this include.

#include "attack/attacks.h"          // IWYU pragma: export
#include "common/bitvec.h"           // IWYU pragma: export
#include "common/result.h"           // IWYU pragma: export
#include "common/status.h"           // IWYU pragma: export
#include "core/additive_attack.h"    // IWYU pragma: export
#include "core/analysis.h"           // IWYU pragma: export
#include "core/bandwidth.h"          // IWYU pragma: export
#include "core/certificate.h"        // IWYU pragma: export
#include "core/channel.h"            // IWYU pragma: export
#include "core/codec.h"              // IWYU pragma: export
#include "core/decision.h"           // IWYU pragma: export
#include "core/detect_engine.h"      // IWYU pragma: export
#include "core/detector.h"           // IWYU pragma: export
#include "core/embedder.h"           // IWYU pragma: export
#include "core/embedding_map.h"      // IWYU pragma: export
#include "core/freq_mark.h"          // IWYU pragma: export
#include "core/injection.h"          // IWYU pragma: export
#include "core/keys.h"               // IWYU pragma: export
#include "core/multi_attribute.h"    // IWYU pragma: export
#include "core/params.h"             // IWYU pragma: export
#include "core/remap_recovery.h"     // IWYU pragma: export
#include "crypto/hmac.h"             // IWYU pragma: export
#include "crypto/keyed_hash.h"       // IWYU pragma: export
#include "ecc/code.h"                // IWYU pragma: export
#include "gen/sales_gen.h"           // IWYU pragma: export
#include "quality/assessor.h"        // IWYU pragma: export
#include "quality/constraint_lang.h" // IWYU pragma: export
#include "quality/plugins.h"         // IWYU pragma: export
#include "quality/query_plugins.h"   // IWYU pragma: export
#include "relation/catm_io.h"        // IWYU pragma: export
#include "relation/csv.h"            // IWYU pragma: export
#include "relation/ops.h"            // IWYU pragma: export
#include "relation/query.h"          // IWYU pragma: export
#include "relation/relation.h"       // IWYU pragma: export
#include "service/service.h"         // IWYU pragma: export
#include "service/session.h"         // IWYU pragma: export

#endif  // CATMARK_CORE_CATMARK_H_
