// Zero-copy codec interfaces: encode_into must produce exactly the words
// encode_block appends (for every codec, at every offset pattern the mm
// algorithms use), and decode_into must reproduce decode_block without
// allocating fresh storage for reused scratch (PolyCodec reuses the
// coefficient buffers of cap-matching scratch entries).
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/mm_dense.hpp"
#include "matrix/codec.hpp"
#include "matrix/poly.hpp"
#include "util/rng.hpp"

namespace cca {
namespace {

template <typename Codec>
void expect_encode_into_matches_block(const Codec& codec,
                                      const std::vector<typename Codec::Value>& vals) {
  std::vector<EncodedWord> block;
  codec.encode_block(vals, block);
  ASSERT_EQ(block.size(), codec.words_for(vals.size()));

  // encode_into must write every word it owns: poison the destination to
  // catch any read-modify-write dependence on pre-zeroed memory.
  std::vector<EncodedWord> into(codec.words_for(vals.size()),
                                0xDEADBEEFDEADBEEFull);
  codec.encode_into(std::span<const typename Codec::Value>(vals), into.data());
  EXPECT_EQ(into, block);

  // Round trip through both decode forms.
  const auto decoded = codec.decode_block(into.data(), vals.size());
  EXPECT_EQ(decoded, vals);
  std::vector<typename Codec::Value> scratch(vals.size());
  codec.decode_into(into.data(), vals.size(), scratch.data());
  EXPECT_EQ(scratch, vals);
}

TEST(Codecs, I64EncodeIntoMatchesEncodeBlock) {
  Rng rng(21);
  const I64Codec c;
  for (const std::size_t count : {0u, 1u, 7u, 64u, 129u}) {
    std::vector<std::int64_t> vals(count);
    for (auto& v : vals)
      v = static_cast<std::int64_t>(rng.next());  // full 64-bit patterns
    expect_encode_into_matches_block(c, vals);
  }
}

TEST(Codecs, ByteEncodeIntoMatchesEncodeBlock) {
  Rng rng(22);
  const ByteCodec c;
  for (const std::size_t count : {0u, 1u, 13u, 200u}) {
    std::vector<std::uint8_t> vals(count);
    for (auto& v : vals) v = static_cast<std::uint8_t>(rng.next_below(256));
    expect_encode_into_matches_block(c, vals);
  }
}

TEST(Codecs, PackedBoolEncodeIntoMatchesEncodeBlock) {
  Rng rng(23);
  const PackedBoolCodec c;
  // Straddle word boundaries: sub-word, exact-word, word+1 sizes.
  for (const std::size_t count : {0u, 1u, 63u, 64u, 65u, 130u, 1000u}) {
    std::vector<std::uint8_t> vals(count);
    for (auto& v : vals) v = static_cast<std::uint8_t>(rng.next_below(2));
    expect_encode_into_matches_block(c, vals);
  }
}

TEST(Codecs, PolyEncodeIntoMatchesEncodeBlock) {
  Rng rng(24);
  const PolyCodec c{5};
  for (const std::size_t count : {0u, 1u, 4u, 17u}) {
    std::vector<CappedPoly> vals;
    for (std::size_t i = 0; i < count; ++i) {
      CappedPoly p(5);
      for (int d = 0; d < 5; ++d)
        p.coeff(d) = static_cast<std::int64_t>(rng.next_in(-1000, 1000));
      vals.push_back(std::move(p));
    }
    expect_encode_into_matches_block(c, vals);
  }
}

TEST(Codecs, PolyDecodeIntoReusesScratchStorage) {
  Rng rng(25);
  const PolyCodec c{4};
  std::vector<CappedPoly> vals;
  for (int i = 0; i < 8; ++i) {
    CappedPoly p(4);
    for (int d = 0; d < 4; ++d) p.coeff(d) = rng.next_in(-50, 50);
    vals.push_back(std::move(p));
  }
  std::vector<EncodedWord> words;
  c.encode_block(vals, words);

  // Scratch with matching caps: the coefficient storage must be written in
  // place (same heap allocation before and after).
  std::vector<CappedPoly> scratch(8, CappedPoly(4));
  const std::int64_t* before = &scratch[0].coeff(0);
  c.decode_into(words.data(), 8, scratch.data());
  EXPECT_EQ(&scratch[0].coeff(0), before);
  EXPECT_EQ(scratch, vals);

  // Decoding over the same scratch again (the steady state of a reused
  // buffer) stays allocation-stable and correct.
  const std::int64_t* stable = &scratch[3].coeff(0);
  c.decode_into(words.data(), 8, scratch.data());
  EXPECT_EQ(&scratch[3].coeff(0), stable);
  EXPECT_EQ(scratch, vals);

  // Cap-mismatched scratch (default-constructed, cap 0) is upgraded.
  std::vector<CappedPoly> fresh(8);
  c.decode_into(words.data(), 8, fresh.data());
  EXPECT_EQ(fresh, vals);
}

// ---------------------------------------------------------------------------
// Multi-block message decode offsets. Every engine decodes through
// decode_entries_at with an explicit word offset: block 2 of a two-block
// message sits at words_for(block 1), which stays exact for every codec,
// including PackedBoolCodec at non-64-multiple entry counts (where
// words_for is NOT additive across three or more blocks, so offsets are
// never derived from summed entry counts). Pinned here by randomized
// round-trips.
// ---------------------------------------------------------------------------

template <typename Codec, typename Gen>
void expect_two_block_roundtrip(const Codec& codec, Gen&& gen, std::size_t e1,
                                std::size_t e2) {
  using V = typename Codec::Value;
  std::vector<V> block1(e1), block2(e2);
  for (auto& v : block1) v = gen();
  for (auto& v : block2) v = gen();

  // The mm staging layout: both blocks in one span, block 2 at word offset
  // words_for(e1).
  std::vector<EncodedWord> msg(codec.words_for(e1) + codec.words_for(e2),
                               0xABABABABABABABABull);
  codec.encode_into(std::span<const V>(block1), msg.data());
  codec.encode_into(std::span<const V>(block2),
                    msg.data() + codec.words_for(e1));

  // decode_entries_at with the explicit word offset (the production call
  // shape in every engine's receive loops).
  std::vector<V> at1(e1), at2(e2);
  const std::span<const EncodedWord> view(msg);
  core::detail::decode_entries_at(codec, view, 0, e1, at1.data());
  core::detail::decode_entries_at(codec, view, codec.words_for(e1), e2,
                                  at2.data());
  EXPECT_EQ(at1, block1);
  EXPECT_EQ(at2, block2);
}

TEST(Codecs, TwoBlockRoundTripI64) {
  Rng rng(31);
  const I64Codec c;
  for (int trial = 0; trial < 20; ++trial) {
    const auto e1 = static_cast<std::size_t>(rng.next_in(1, 80));
    const auto e2 = static_cast<std::size_t>(rng.next_in(1, 80));
    expect_two_block_roundtrip(
        c, [&] { return static_cast<std::int64_t>(rng.next()); }, e1, e2);
  }
}

TEST(Codecs, TwoBlockRoundTripByte) {
  Rng rng(32);
  const ByteCodec c;
  for (int trial = 0; trial < 20; ++trial) {
    const auto e1 = static_cast<std::size_t>(rng.next_in(1, 80));
    const auto e2 = static_cast<std::size_t>(rng.next_in(1, 80));
    expect_two_block_roundtrip(
        c, [&] { return static_cast<std::uint8_t>(rng.next_below(256)); }, e1,
        e2);
  }
}

TEST(Codecs, TwoBlockRoundTripPackedBoolNonWordMultiples) {
  Rng rng(33);
  const PackedBoolCodec c;
  // Deliberately straddle word boundaries: non-64-multiple first blocks
  // put block 2 at a padded (rounded-up) word offset.
  for (const std::size_t e1 : {1u, 7u, 49u, 63u, 64u, 65u, 100u, 130u}) {
    for (int trial = 0; trial < 5; ++trial) {
      const auto e2 = static_cast<std::size_t>(rng.next_in(1, 150));
      expect_two_block_roundtrip(
          c, [&] { return static_cast<std::uint8_t>(rng.next_below(2)); }, e1,
          e2);
    }
  }
}

TEST(Codecs, TwoBlockRoundTripPoly) {
  Rng rng(34);
  const PolyCodec c{3};
  auto gen = [&] {
    CappedPoly p(3);
    for (int d = 0; d < 3; ++d)
      p.coeff(d) = static_cast<std::int64_t>(rng.next_in(-1000, 1000));
    return p;
  };
  for (int trial = 0; trial < 10; ++trial) {
    const auto e1 = static_cast<std::size_t>(rng.next_in(1, 20));
    const auto e2 = static_cast<std::size_t>(rng.next_in(1, 20));
    expect_two_block_roundtrip(c, gen, e1, e2);
  }
}

TEST(Codecs, PackedBoolWordsForIsNotAdditive) {
  // The documented reason three-or-more packed blocks need explicit word
  // offsets: words_for(a + b) < words_for(a) + words_for(b) at non-64
  // multiples, so "prior entries" under-computes the third block's offset.
  const PackedBoolCodec c;
  EXPECT_LT(c.words_for(70 + 70), c.words_for(70) + c.words_for(70));
}

TEST(Codecs, EncodeIntoAtBlockOffsets) {
  // The mm message layout: two blocks in one staged span, the second at
  // words_for(first block). encode_into at an offset must agree with two
  // consecutive encode_block appends.
  Rng rng(26);
  const PackedBoolCodec c;
  std::vector<std::uint8_t> a(70), b(70);
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.next_below(2));
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.next_below(2));

  std::vector<EncodedWord> blocks;
  c.encode_block(a, blocks);
  c.encode_block(b, blocks);

  std::vector<EncodedWord> spans(c.words_for(70) * 2, 0xFFFFFFFFFFFFFFFFull);
  c.encode_into(std::span<const std::uint8_t>(a), spans.data());
  c.encode_into(std::span<const std::uint8_t>(b),
                spans.data() + c.words_for(70));
  EXPECT_EQ(spans, blocks);
}

}  // namespace
}  // namespace cca
