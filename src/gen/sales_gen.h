#ifndef CATMARK_GEN_SALES_GEN_H_
#define CATMARK_GEN_SALES_GEN_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "relation/relation.h"

namespace catmark {

/// Configuration for the synthetic Wal-Mart-style sales relation. The paper
/// evaluated on `UnivClassTables.ItemScan` samples of up to 141 000 tuples
/// with schema (Visit_Nbr INTEGER PRIMARY KEY, Item_Nbr INTEGER NOT NULL);
/// we reproduce that shape synthetically, since the scheme reads only the
/// sparse unique key and the skewed item frequencies, which the generator
/// matches, and add auxiliary attributes for the multi-attribute
/// experiments.
struct SalesGenConfig {
  std::size_t num_tuples = 6000;

  /// Distinct Item_Nbr codes (the categorical domain size nA).
  std::size_t num_items = 1000;

  /// Zipf skew of item popularity; 0 = uniform. Real product-code
  /// frequencies are heavily skewed, which the frequency-domain channel
  /// depends on (Section 4.2).
  double item_zipf_s = 1.0;

  std::size_t num_stores = 50;
  std::size_t num_departments = 18;

  std::uint64_t seed = 42;

  /// When true, Visit_Nbr values are sparse random integers (realistic);
  /// when false, sequential 1..N.
  bool sparse_visit_numbers = true;
};

/// Generates the ItemScan-like relation:
///   Visit_Nbr   INT64  PRIMARY KEY
///   Item_Nbr    INT64  CATEGORICAL   (watermark target, Zipf popularity)
///   Store_Nbr   INT64  CATEGORICAL
///   Dept_Desc   STRING CATEGORICAL
///   Unit_Qty    INT64
///   Sale_Amount DOUBLE
Relation GenerateItemScan(const SalesGenConfig& config);

/// Minimal two-column configuration used by most figure benches.
struct KeyedCategoricalConfig {
  std::size_t num_tuples = 6000;
  std::size_t domain_size = 1000;  ///< nA
  double zipf_s = 1.0;
  std::uint64_t seed = 42;
};

/// Generates a (K INT64 PRIMARY KEY, A STRING CATEGORICAL) relation; A's
/// values are "V0000".."Vnnnn" with Zipf-distributed popularity assigned in
/// a shuffled order (so popularity rank does not correlate with the sorted
/// domain index).
Relation GenerateKeyedCategorical(const KeyedCategoricalConfig& config);

/// Generate-and-save conveniences: write the relation straight to `path`,
/// format chosen by extension (`.catm` = binary columnar, else CSV).
/// Returns the number of tuples written.
Result<std::size_t> GenerateItemScanFile(const SalesGenConfig& config,
                                         const std::string& path);
Result<std::size_t> GenerateKeyedCategoricalFile(
    const KeyedCategoricalConfig& config, const std::string& path);

}  // namespace catmark

#endif  // CATMARK_GEN_SALES_GEN_H_
