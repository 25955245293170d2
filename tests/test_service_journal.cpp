// The crash-recovery harness for service/journal.hpp: a deterministic
// kill-point sweep proving that for EVERY byte offset a crash can truncate
// the write-ahead journal at, recovery reproduces the never-crashed cache
// bit-identically (entries, LRU recency, and the reply bit patterns served
// from them); plus the group-commit loss bound, compaction idempotence,
// wedging under injected fsync failures, and a seeded corruption fuzzer —
// a journal is runtime input, so damage must never assert or lose records
// that were fully written before the first damaged byte.

#include "relap/service/journal.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/service/broker.hpp"
#include "relap/service/faultpoint.hpp"
#include "relap/service/snapshot.hpp"
#include "relap/util/bytes.hpp"
#include "relap/util/hash.hpp"

namespace relap::service {
namespace {

class Journals : public ::testing::Test {
 protected:
  void SetUp() override { faultpoint::clear(); }
  void TearDown() override { faultpoint::clear(); }
};

InstanceData small_instance(std::uint64_t seed) {
  const auto pipe = gen::random_uniform_pipeline(4, seed);
  gen::PlatformGenOptions options;
  options.processors = 4;
  const auto plat = gen::random_fully_heterogeneous(options, seed + 1);
  return InstanceData::from(pipe, plat);
}

SolveRequest pareto_request(std::uint64_t seed) {
  SolveRequest request;
  request.instance = small_instance(seed);
  request.objective = Objective::ParetoFront;
  return request;
}

std::string temp_path(const char* tag) {
  return std::string(::testing::TempDir()) + "relap_journal_" + tag + ".bin";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The byte offset where each journal record ends (cumulative, after the
/// header), parsed straight from the length-prefixed framing.
std::vector<std::size_t> record_boundaries(const std::string& bytes) {
  std::vector<std::size_t> ends;
  std::size_t offset = kJournalHeaderBytes;
  while (offset + kJournalRecordFrameBytes <= bytes.size()) {
    std::uint64_t size = 0;
    for (int b = 7; b >= 0; --b) {
      size = (size << 8) | static_cast<unsigned char>(bytes[offset + static_cast<std::size_t>(b)]);
    }
    offset += kJournalRecordFrameBytes + static_cast<std::size_t>(size);
    if (offset > bytes.size()) break;
    ends.push_back(offset);
  }
  return ends;
}

/// The bit-identity witness: a cache state serialized by the snapshot codec.
/// Two caches with byte-equal images have identical entries (keys, hashes,
/// front bit patterns) in identical per-shard LRU order.
std::string cache_image(const FrontCache& cache) {
  return encode_snapshot(cache.export_entries());
}

/// A broker's cache image, via a throwaway snapshot file (the broker does
/// not expose its cache directly).
std::string broker_image(Broker& broker, const char* tag) {
  const std::string path = temp_path(tag);
  const auto saved = broker.save_snapshot(path);
  EXPECT_TRUE(saved.has_value()) << saved.error().to_string();
  std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

void expect_bits_equal(const Reply& a, const Reply& b) {
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.front[i].latency),
              std::bit_cast<std::uint64_t>(b.front[i].latency));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.front[i].failure_probability),
              std::bit_cast<std::uint64_t>(b.front[i].failure_probability));
    EXPECT_EQ(a.front[i].mapping.describe(), b.front[i].mapping.describe());
  }
  EXPECT_EQ(a.canonical_hash, b.canonical_hash);
}

/// Builds a journal by solving `seeds` through a journal-attached broker,
/// then returns the on-disk journal bytes (the broker is destroyed so the
/// file is complete and closed).
std::string journal_bytes_for(const std::vector<std::uint64_t>& seeds, const char* tag) {
  const std::string path = temp_path(tag);
  std::remove(path.c_str());
  {
    Broker broker;
    const auto recovered = broker.recover("", path);
    EXPECT_TRUE(recovered.has_value()) << recovered.error().to_string();
    EXPECT_TRUE(broker.journal_enabled());
    for (const std::uint64_t seed : seeds) {
      const auto reply = broker.solve(pareto_request(seed));
      EXPECT_TRUE(reply.has_value()) << reply.error().to_string();
    }
    EXPECT_EQ(broker.journal_stats().records_appended, seeds.size());
  }
  std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

// --- Codec round trips. -----------------------------------------------------

TEST_F(Journals, HeaderAndRecordCodecRoundTrip) {
  const std::string header = encode_journal_header();
  ASSERT_EQ(header.size(), kJournalHeaderBytes);
  const auto empty = decode_journal(header);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->entries.empty());
  EXPECT_EQ(empty->torn_records, 0U);
  EXPECT_EQ(empty->valid_bytes, kJournalHeaderBytes);

  // Frame real cache entries and decode them back bit-exactly.
  Broker broker;
  ASSERT_TRUE(broker.solve(pareto_request(1)).has_value());
  ASSERT_TRUE(broker.solve(pareto_request(2)).has_value());
  const std::string snap = temp_path("codec_snap");
  ASSERT_TRUE(broker.save_snapshot(snap).has_value());
  const auto entries = decode_snapshot(read_file(snap));
  std::remove(snap.c_str());
  ASSERT_TRUE(entries.has_value());
  ASSERT_EQ(entries->size(), 2U);

  std::string bytes = header;
  for (const FrontCache::ExportedEntry& entry : *entries) {
    bytes += encode_journal_record(entry);
  }
  const auto decoded = decode_journal(bytes);
  ASSERT_TRUE(decoded.has_value()) << decoded.error().to_string();
  ASSERT_EQ(decoded->entries.size(), 2U);
  EXPECT_EQ(decoded->torn_records, 0U);
  EXPECT_EQ(decoded->valid_bytes, bytes.size());
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(encode_journal_record(decoded->entries[i]),
              encode_journal_record((*entries)[i]));
  }
}

TEST_F(Journals, OpenCreatesAppendsAndReplays) {
  const std::string path = temp_path("open");
  std::remove(path.c_str());

  Broker broker;
  ASSERT_TRUE(broker.solve(pareto_request(7)).has_value());
  const std::string snap = temp_path("open_snap");
  ASSERT_TRUE(broker.save_snapshot(snap).has_value());
  const auto entries = decode_snapshot(read_file(snap));
  std::remove(snap.c_str());
  ASSERT_TRUE(entries.has_value());
  ASSERT_EQ(entries->size(), 1U);

  {
    auto opened = Journal::open(path);
    ASSERT_TRUE(opened.has_value()) << opened.error().to_string();
    EXPECT_TRUE(opened.value().replayed.entries.empty());
    Journal& journal = *opened.value().journal;
    EXPECT_EQ(journal.stats().file_bytes, kJournalHeaderBytes);

    const auto appended = journal.append((*entries)[0]);
    ASSERT_TRUE(appended.has_value()) << appended.error().to_string();
    EXPECT_EQ(appended->records_appended, 1U);
    // fsync_every defaults to 1: the append is durable before it returns.
    EXPECT_EQ(appended->fsyncs, 1U);
    EXPECT_EQ(appended->synced_bytes, appended->file_bytes);
    EXPECT_FALSE(journal.wedged());
  }
  {
    auto reopened = Journal::open(path);
    ASSERT_TRUE(reopened.has_value()) << reopened.error().to_string();
    ASSERT_EQ(reopened.value().replayed.entries.size(), 1U);
    EXPECT_EQ(reopened.value().replayed.torn_records, 0U);
    EXPECT_EQ(encode_journal_record(reopened.value().replayed.entries[0]),
              encode_journal_record((*entries)[0]));
  }
  std::remove(path.c_str());
}

// --- The kill-point sweep (the crash-recovery harness). ----------------------

TEST_F(Journals, KillPointSweepEveryBytePrefixRecoversTheReferenceCache) {
  const std::vector<std::uint64_t> seeds = {11, 12, 13};
  const std::string bytes = journal_bytes_for(seeds, "sweep_src");
  const std::vector<std::size_t> ends = record_boundaries(bytes);
  ASSERT_EQ(ends.size(), seeds.size());
  ASSERT_EQ(ends.back(), bytes.size());

  const auto full = decode_journal(bytes);
  ASSERT_TRUE(full.has_value());
  ASSERT_EQ(full->entries.size(), seeds.size());

  // Never-crashed references: the cache image after the first k inserts.
  std::vector<std::string> reference;
  {
    FrontCache cache;
    reference.push_back(cache_image(cache));
    for (const FrontCache::ExportedEntry& entry : full->entries) {
      cache.insert(entry.hash, entry.key, entry.value);
      reference.push_back(cache_image(cache));
    }
  }

  // A crash can truncate the journal at ANY byte. At every single offset,
  // replay must recover exactly the records fully written before the kill
  // point — no error, no lost earlier record, no partial record surviving.
  for (std::size_t t = 0; t <= bytes.size(); ++t) {
    const std::string_view prefix(bytes.data(), t);
    const auto image = decode_journal(prefix);
    ASSERT_TRUE(image.has_value()) << "offset " << t << ": " << image.error().to_string();

    std::size_t complete = 0;
    while (complete < ends.size() && ends[complete] <= t) ++complete;
    ASSERT_EQ(image->entries.size(), complete) << "offset " << t;
    const std::size_t valid = complete == 0 ? (t >= kJournalHeaderBytes ? kJournalHeaderBytes : 0)
                                            : ends[complete - 1];
    EXPECT_EQ(image->valid_bytes, valid) << "offset " << t;
    // A torn header is a torn *creation*, not a torn record; only bytes
    // past a complete header can form the discarded-tail record.
    EXPECT_EQ(image->torn_records, t >= kJournalHeaderBytes && t > valid ? 1U : 0U)
        << "offset " << t;

    FrontCache cache;
    for (const FrontCache::ExportedEntry& entry : image->entries) {
      cache.insert(entry.hash, entry.key, entry.value);
    }
    ASSERT_EQ(cache_image(cache), reference[complete]) << "offset " << t;
  }
}

TEST_F(Journals, RecoverySweepAtRecordBoundariesServesBitIdenticalWarmReplies) {
  const std::vector<std::uint64_t> seeds = {21, 22, 23};
  const std::string bytes = journal_bytes_for(seeds, "boundary_src");
  const std::vector<std::size_t> ends = record_boundaries(bytes);
  ASSERT_EQ(ends.size(), seeds.size());

  // Reference replies from a never-crashed broker.
  std::vector<Reply> reference;
  {
    Broker broker;
    for (const std::uint64_t seed : seeds) {
      auto reply = broker.solve(pareto_request(seed));
      ASSERT_TRUE(reply.has_value());
      reference.push_back(std::move(reply).take());
    }
  }

  const std::string path = temp_path("boundary");
  for (std::size_t k = 0; k <= seeds.size(); ++k) {
    const std::size_t cut = k == 0 ? kJournalHeaderBytes : ends[k - 1];
    // Also kill a few bytes into the NEXT record: the torn tail must be
    // discarded without dragging down the k complete records before it.
    for (const std::size_t extra : {std::size_t{0}, std::size_t{1}, std::size_t{9}}) {
      const std::size_t t = std::min(cut + extra, bytes.size());
      write_file(path, std::string_view(bytes).substr(0, t));

      Broker broker;
      const auto recovered = broker.recover("", path);
      ASSERT_TRUE(recovered.has_value()) << recovered.error().to_string();
      EXPECT_EQ(recovered->journal_records, k);
      EXPECT_EQ(recovered->torn_records, t > cut && k < seeds.size() ? 1U : 0U);
      EXPECT_FALSE(recovered->snapshot_loaded);
      EXPECT_EQ(broker.metrics().journal_records_replayed.value(), k);
      EXPECT_GE(broker.metrics().recovery_seconds.value(), 0.0);

      // Replayed seeds hit warm with the reference bit patterns; the first
      // lost seed is a fresh miss (and re-solves to the same bits anyway).
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        const auto reply = broker.solve(pareto_request(seeds[i]));
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->cache_hit, i < k) << "k=" << k << " seed " << seeds[i];
        expect_bits_equal(*reply, reference[i]);
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(Journals, FaultInjectedTornAppendsRecoverEndToEnd) {
  // End-to-end variant of the sweep: the journal.append fault point tears
  // the FINAL append at a chosen byte count, mimicking a kill -9 mid-write
  // inside a real serving broker rather than a hand-truncated file.
  const std::vector<std::uint64_t> seeds = {31, 32, 33};

  std::string reference_image;
  {
    Broker broker;
    for (std::size_t i = 0; i + 1 < seeds.size(); ++i) {
      ASSERT_TRUE(broker.solve(pareto_request(seeds[i])).has_value());
    }
    reference_image = broker_image(broker, "torn_ref");
  }

  const std::string whole = journal_bytes_for(seeds, "torn_src");
  const std::vector<std::size_t> ends = record_boundaries(whole);
  const std::size_t last_record = ends.back() - ends[ends.size() - 2];

  for (const std::size_t torn : {std::size_t{0}, std::size_t{1},
                                 kJournalRecordFrameBytes - 1, kJournalRecordFrameBytes,
                                 kJournalRecordFrameBytes + 1, last_record - 1}) {
    const std::string path = temp_path("torn");
    std::remove(path.c_str());
    {
      Broker broker;
      ASSERT_TRUE(broker.recover("", path).has_value());
      for (std::size_t i = 0; i + 1 < seeds.size(); ++i) {
        ASSERT_TRUE(broker.solve(pareto_request(seeds[i])).has_value());
      }
      faultpoint::ArmOptions options;
      options.value = static_cast<double>(torn);
      faultpoint::arm("journal.append", options);
      // The solve itself still succeeds: durability failures never cost the
      // caller its reply, they surface through the stats.
      ASSERT_TRUE(broker.solve(pareto_request(seeds.back())).has_value());
      faultpoint::clear();
      EXPECT_GE(broker.journal_stats().append_errors, 1U);
    }

    Broker restored;
    const auto recovered = restored.recover("", path);
    ASSERT_TRUE(recovered.has_value()) << "torn=" << torn << ": "
                                       << recovered.error().to_string();
    EXPECT_EQ(recovered->journal_records, seeds.size() - 1) << "torn=" << torn;
    EXPECT_EQ(recovered->torn_records, torn > 0 ? 1U : 0U) << "torn=" << torn;
    EXPECT_EQ(broker_image(restored, "torn_got"), reference_image) << "torn=" << torn;
    std::remove(path.c_str());
  }
}

// --- Group commit. -----------------------------------------------------------

TEST_F(Journals, GroupCommitBoundsCrashLossToFsyncEveryMinusOne) {
  const std::vector<std::uint64_t> seeds = {41, 42, 43, 44, 45, 46};
  const std::string path = temp_path("group");
  std::remove(path.c_str());

  JournalOptions options;
  options.fsync_every = 4;
  JournalStats stats;
  {
    Broker broker;
    ASSERT_TRUE(broker.recover("", path, options).has_value());
    for (const std::uint64_t seed : seeds) {
      ASSERT_TRUE(broker.solve(pareto_request(seed)).has_value());
    }
    stats = broker.journal_stats();
    EXPECT_EQ(stats.records_appended, seeds.size());
    EXPECT_EQ(stats.fsyncs, 1U);  // one group of 4 committed; 2 records pending
    EXPECT_LT(stats.synced_bytes, stats.file_bytes);

    // Model the worst crash group commit allows: everything past the last
    // completed fsync is lost. Capture the journal as of that fsync.
    const std::string bytes = read_file(path);
    write_file(path + ".crashed", std::string_view(bytes).substr(
                                      0, static_cast<std::size_t>(stats.synced_bytes)));

    // An explicit sync drains the pending group (clean-shutdown durability).
    const auto synced = broker.sync_journal();
    ASSERT_TRUE(synced.has_value());
    EXPECT_EQ(synced->fsyncs, 2U);
    EXPECT_EQ(synced->synced_bytes, synced->file_bytes);
  }

  Broker restored;
  const auto recovered = restored.recover("", path + ".crashed", options);
  ASSERT_TRUE(recovered.has_value()) << recovered.error().to_string();
  // The loss bound: at most fsync_every - 1 of the most recent solves gone,
  // and the survivors are exactly the oldest prefix.
  ASSERT_GE(recovered->journal_records, seeds.size() - (options.fsync_every - 1));
  EXPECT_EQ(recovered->journal_records, 4U);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const auto reply = restored.solve(pareto_request(seeds[i]));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->cache_hit, i < 4) << "seed " << seeds[i];
  }
  std::remove(path.c_str());
  std::remove((path + ".crashed").c_str());
}

// --- Compaction. -------------------------------------------------------------

TEST_F(Journals, SnapshotSaveCompactsTheJournal) {
  const std::string snap = temp_path("compact_snap");
  const std::string wal = temp_path("compact_wal");
  std::remove(snap.c_str());
  std::remove(wal.c_str());

  std::string reference_image;
  {
    Broker broker;
    ASSERT_TRUE(broker.recover(snap, wal).has_value());
    ASSERT_TRUE(broker.solve(pareto_request(51)).has_value());
    ASSERT_TRUE(broker.solve(pareto_request(52)).has_value());
    EXPECT_GT(broker.journal_stats().file_bytes, kJournalHeaderBytes);

    const auto saved = broker.save_snapshot(snap);
    ASSERT_TRUE(saved.has_value()) << saved.error().to_string();
    EXPECT_EQ(saved->entries, 2U);
    const JournalStats stats = broker.journal_stats();
    EXPECT_EQ(stats.rotations, 1U);
    EXPECT_EQ(stats.file_bytes, kJournalHeaderBytes);
    reference_image = read_file(snap);
  }
  // The on-disk journal is a bare header again: its records live in the
  // snapshot now, so recovery replays nothing.
  EXPECT_EQ(read_file(wal), encode_journal_header());

  Broker restored;
  const auto recovered = restored.recover(snap, wal);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(recovered->snapshot_loaded);
  EXPECT_EQ(recovered->snapshot_entries, 2U);
  EXPECT_EQ(recovered->journal_records, 0U);
  EXPECT_EQ(broker_image(restored, "compact_got"), reference_image);
  std::remove(snap.c_str());
  std::remove(wal.c_str());
}

TEST_F(Journals, FailedRotationLeavesAnIdempotentStaleJournal) {
  const std::string snap = temp_path("rotfail_snap");
  const std::string wal = temp_path("rotfail_wal");
  std::remove(snap.c_str());
  std::remove(wal.c_str());

  std::string reference_image;
  {
    Broker broker;
    ASSERT_TRUE(broker.recover(snap, wal).has_value());
    ASSERT_TRUE(broker.solve(pareto_request(61)).has_value());

    faultpoint::arm("journal.rotate");
    const auto saved = broker.save_snapshot(snap);
    faultpoint::clear();
    // The snapshot committed; only the rotation failed. That is reported —
    // but nothing is lost, because replaying the stale journal over the
    // snapshot re-inserts records the snapshot already holds.
    ASSERT_FALSE(saved.has_value());
    EXPECT_EQ(saved.error().code, "io");
    EXPECT_EQ(broker.journal_stats().rotations, 0U);
    reference_image = read_file(snap);
    ASSERT_FALSE(reference_image.empty());

    // The journal did not wedge: later solves still append durably.
    ASSERT_TRUE(broker.solve(pareto_request(62)).has_value());
    EXPECT_EQ(broker.journal_stats().records_appended, 2U);
  }

  Broker restored;
  const auto recovered = restored.recover(snap, wal);
  ASSERT_TRUE(recovered.has_value()) << recovered.error().to_string();
  EXPECT_EQ(recovered->snapshot_entries, 1U);
  EXPECT_EQ(recovered->journal_records, 2U);  // seed 61 replays idempotently
  EXPECT_EQ(restored.cache_stats().entries, 2U);
  for (const std::uint64_t seed : {61U, 62U}) {
    const auto reply = restored.solve(pareto_request(seed));
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(reply->cache_hit) << "seed " << seed;
  }
  std::remove(snap.c_str());
  std::remove(wal.c_str());
}

// --- Wedging. ----------------------------------------------------------------

TEST_F(Journals, FsyncFailureWedgesTheJournalButServingContinues) {
  const std::string path = temp_path("wedge");
  std::remove(path.c_str());
  {
    Broker broker;
    ASSERT_TRUE(broker.recover("", path).has_value());

    faultpoint::arm("journal.fsync");
    // The solve succeeds even though its durability commit failed...
    ASSERT_TRUE(broker.solve(pareto_request(71)).has_value());
    faultpoint::clear();
    EXPECT_GE(broker.journal_stats().append_errors, 1U);

    // ...and the wedged journal refuses further appends without failing
    // the solves that trigger them.
    ASSERT_TRUE(broker.solve(pareto_request(72)).has_value());
    EXPECT_GE(broker.journal_stats().append_errors, 2U);
    EXPECT_EQ(broker.journal_stats().records_appended, 1U);

    const auto synced = broker.sync_journal();
    EXPECT_FALSE(synced.has_value());
    EXPECT_EQ(synced.error().code, "io");

    EXPECT_NE(broker.metrics_json().find("\"append_errors\":"), std::string::npos);
  }

  // What reached the file before the wedge replays normally.
  Broker restored;
  const auto recovered = restored.recover("", path);
  ASSERT_TRUE(recovered.has_value()) << recovered.error().to_string();
  EXPECT_EQ(recovered->journal_records, 1U);
  std::remove(path.c_str());
}

// --- LRU interaction. --------------------------------------------------------

TEST_F(Journals, ReplayPreservesLruOrderUnderEvictionPressure) {
  // More journaled inserts than the recovered cache can hold: replay order
  // decides who survives, so it must match the never-crashed eviction order.
  const std::vector<std::uint64_t> seeds = {81, 82, 83, 84, 85, 86};
  BrokerOptions small;
  small.cache.capacity = 4;
  small.cache.shards = 1;

  // Never-crashed reference: a journal-free broker running the same
  // workload (saving the journaled broker's snapshot would *compact* the
  // journal away — exactly the rotation the crash is supposed to preempt).
  std::string reference_image;
  {
    Broker reference(small);
    for (const std::uint64_t seed : seeds) {
      ASSERT_TRUE(reference.solve(pareto_request(seed)).has_value());
    }
    reference_image = broker_image(reference, "lru_ref");
  }

  const std::string path = temp_path("lru");
  std::remove(path.c_str());
  {
    Broker broker(small);
    ASSERT_TRUE(broker.recover("", path).has_value());
    for (const std::uint64_t seed : seeds) {
      ASSERT_TRUE(broker.solve(pareto_request(seed)).has_value());
    }
    EXPECT_GT(broker.cache_stats().evictions, 0U);
    // The journal keeps all six records; the cache only the last four.
    EXPECT_EQ(broker.journal_stats().records_appended, seeds.size());
  }

  Broker restored(small);
  const auto recovered = restored.recover("", path);
  ASSERT_TRUE(recovered.has_value()) << recovered.error().to_string();
  EXPECT_EQ(recovered->journal_records, seeds.size());
  EXPECT_EQ(restored.cache_stats().entries, 4U);
  EXPECT_EQ(broker_image(restored, "lru_got"), reference_image);
  std::remove(path.c_str());
}

// --- Rejection rules and the corruption fuzzer. -------------------------------

TEST_F(Journals, VersionAndStampMismatchesReject) {
  const std::string bytes = journal_bytes_for({91}, "version_src");

  std::string bad_magic = bytes;
  bad_magic[0] ^= 0x01;
  auto decoded = decode_journal(bad_magic);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error().code, "journal-version");

  std::string bad_version = bytes;
  bad_version[8] ^= 0x01;  // the u32 format version follows the magic
  decoded = decode_journal(bad_version);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error().code, "journal-version");

  std::string bad_stamp = bytes;
  bad_stamp[12] ^= 0x01;  // first byte of the build-stamp hash
  decoded = decode_journal(bad_stamp);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error().code, "journal-version");

  // A broker refuses to recover from it and attaches no journal.
  const std::string path = temp_path("version");
  write_file(path, bad_stamp);
  Broker broker;
  const auto recovered = broker.recover("", path);
  ASSERT_FALSE(recovered.has_value());
  EXPECT_EQ(recovered.error().code, "journal-version");
  EXPECT_FALSE(broker.journal_enabled());
  std::remove(path.c_str());
}

TEST_F(Journals, PreviousSolverGenerationIsRefused) {
  // A journal of the v1 result stream may hold heuristic (exact=0) fronts
  // for the polynomial classes that v2 solves exactly: recovery refuses it
  // rather than replaying them.
  std::string bytes = journal_bytes_for({92}, "v1_src");
  std::string v1_stamp;
  util::bytes::append_u64_le(v1_stamp, util::fnv1a("relap-solver-fronts-v1"));
  bytes.replace(12, 8, v1_stamp);  // the build-stamp hash follows the version
  const auto decoded = decode_journal(bytes);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error().code, "journal-version");
  EXPECT_NE(decoded.error().message.find("stamp mismatch"), std::string::npos)
      << decoded.error().to_string();

  const std::string path = temp_path("v1");
  write_file(path, bytes);
  Broker broker;
  const auto recovered = broker.recover("", path);
  ASSERT_FALSE(recovered.has_value());
  EXPECT_EQ(recovered.error().code, "journal-version");
  EXPECT_FALSE(broker.journal_enabled());
  EXPECT_EQ(broker.cache_stats().entries, 0U);
  std::remove(path.c_str());
}

TEST_F(Journals, MidFileDamageIsCorruptionNotATornTail) {
  const std::string bytes = journal_bytes_for({95, 96}, "corrupt_src");
  const std::vector<std::size_t> ends = record_boundaries(bytes);
  ASSERT_EQ(ends.size(), 2U);

  // A flipped payload byte in the FIRST record, with the second intact
  // after it: the damaged write completed, so this is not a crash artifact.
  std::string mid_flip = bytes;
  mid_flip[kJournalHeaderBytes + kJournalRecordFrameBytes + 3] ^= 0x40;
  auto decoded = decode_journal(mid_flip);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error().code, "journal-corrupt");

  // The same flip in the LAST record is a torn tail: discarded, the intact
  // prefix survives.
  std::string tail_flip = bytes;
  tail_flip[ends[0] + kJournalRecordFrameBytes + 3] ^= 0x40;
  decoded = decode_journal(tail_flip);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->entries.size(), 1U);
  EXPECT_EQ(decoded->torn_records, 1U);

  // Checksum-valid but structurally damaged payloads are corruption even at
  // the tail: rebuild the final record with a trailing garbage byte and a
  // fixed-up frame.
  const auto full = decode_journal(bytes);
  ASSERT_TRUE(full.has_value());
  std::string payload;
  encode_cache_entry(payload, full->entries[1]);
  payload.push_back('\x5a');
  std::string trailing(bytes.substr(0, ends[0]));
  util::bytes::append_u64_le(trailing, payload.size());
  util::bytes::append_u64_le(trailing, util::fnv1a(payload));
  trailing += payload;
  decoded = decode_journal(trailing);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error().code, "journal-corrupt");
}

TEST_F(Journals, SeededCorruptionFuzzNeverCrashesAndNeverLosesThePreDamagePrefix) {
  const std::vector<std::uint64_t> seeds = {101, 102, 103};
  const std::string bytes = journal_bytes_for(seeds, "fuzz_src");
  const std::vector<std::size_t> ends = record_boundaries(bytes);
  ASSERT_EQ(ends.size(), seeds.size());

  const auto full = decode_journal(bytes);
  ASSERT_TRUE(full.has_value());
  std::vector<std::string> record_encoding;
  for (const FrontCache::ExportedEntry& entry : full->entries) {
    record_encoding.push_back(encode_journal_record(entry));
  }

  std::mt19937_64 rng(0xf005ba11);
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::string mutated = bytes;
    std::size_t first_damage = bytes.size();
    switch (iteration % 5) {
      case 0: {  // truncation at a random offset (the crash shape)
        first_damage = rng() % (bytes.size() + 1);
        mutated.resize(first_damage);
        break;
      }
      case 1: {  // single bit flip anywhere
        first_damage = rng() % bytes.size();
        mutated[first_damage] ^= static_cast<char>(1U << (rng() % 8));
        break;
      }
      case 2: {  // duplicated tail record
        mutated += record_encoding.back();
        break;
      }
      case 3: {  // reordered tail: swap the last two records
        mutated = bytes.substr(0, ends[0]);
        mutated += record_encoding[2];
        mutated += record_encoding[1];
        first_damage = ends[0];  // damage starts where the order diverges
        break;
      }
      case 4: {  // appended garbage
        const std::size_t count = 1 + rng() % 64;
        for (std::size_t i = 0; i < count; ++i) {
          mutated.push_back(static_cast<char>(rng() & 0xff));
        }
        break;
      }
    }

    const auto decoded = decode_journal(mutated);
    if (!decoded.has_value()) {
      EXPECT_TRUE(decoded.error().code == "journal-corrupt" ||
                  decoded.error().code == "journal-version")
          << "iteration " << iteration << ": " << decoded.error().to_string();
      continue;
    }
    // Every record that lies fully before the first damaged byte must
    // survive replay, in order, bit-exactly.
    std::size_t intact = 0;
    while (intact < ends.size() && ends[intact] <= first_damage) ++intact;
    ASSERT_GE(decoded->entries.size(), intact) << "iteration " << iteration;
    for (std::size_t i = 0; i < intact; ++i) {
      EXPECT_EQ(encode_journal_record(decoded->entries[i]), record_encoding[i])
          << "iteration " << iteration << " record " << i;
    }
  }
}

}  // namespace
}  // namespace relap::service
