#include "core/messages.hpp"

#include <gtest/gtest.h>

namespace zmail::core {
namespace {

class MessagesTest : public ::testing::Test {
 protected:
  Rng rng_{77};
  crypto::KeyPair keys_ = crypto::generate_keypair(rng_);
  crypto::NonceGenerator nnc_{55};
};

TEST_F(MessagesTest, BuyRequestRoundTrip) {
  const BuyRequest m{1234, nnc_.next()};
  const auto back = BuyRequest::deserialize(m.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->buyvalue, 1234);
  EXPECT_EQ(back->nonce, m.nonce);
}

TEST_F(MessagesTest, BuyReplyRoundTripBothFlags) {
  for (bool accepted : {true, false}) {
    const BuyReply m{nnc_.next(), accepted};
    const auto back = BuyReply::deserialize(m.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->accepted, accepted);
    EXPECT_EQ(back->nonce, m.nonce);
  }
}

TEST_F(MessagesTest, SellRequestReplyRoundTrip) {
  const SellRequest s{999, nnc_.next()};
  const auto sb = SellRequest::deserialize(s.serialize());
  ASSERT_TRUE(sb.has_value());
  EXPECT_EQ(sb->sellvalue, 999);

  const SellReply r{s.nonce};
  const auto rb = SellReply::deserialize(r.serialize());
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(rb->nonce, s.nonce);
}

TEST_F(MessagesTest, SnapshotRequestRoundTrip) {
  const SnapshotRequest m{42};
  const auto back = SnapshotRequest::deserialize(m.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, 42u);
}

TEST_F(MessagesTest, CreditReportRoundTripIncludingNegatives) {
  const CreditReport m{7, {3, -5, 0, 1'000'000, -1'000'000}};
  const auto back = CreditReport::deserialize(m.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, 7u);
  EXPECT_EQ(back->credit, m.credit);
}

TEST_F(MessagesTest, CrossTypeDeserializationFails) {
  const BuyRequest buy{10, nnc_.next()};
  EXPECT_FALSE(SellRequest::deserialize(buy.serialize()).has_value());
  EXPECT_FALSE(BuyReply::deserialize(buy.serialize()).has_value());
  EXPECT_FALSE(SnapshotRequest::deserialize(buy.serialize()).has_value());
  EXPECT_FALSE(CreditReport::deserialize(buy.serialize()).has_value());
}

TEST_F(MessagesTest, TruncationDetected) {
  const CreditReport m{1, {1, 2, 3}};
  crypto::Bytes wire = m.serialize();
  wire.pop_back();
  EXPECT_FALSE(CreditReport::deserialize(wire).has_value());
}

// tag 6 ‖ u64 seq ‖ u32 count ‖ count big-endian i64 entries.
TEST_F(MessagesTest, CreditReportWireBytesArePinned) {
  const crypto::Bytes expected = {
      6,    0,    0,    0,    0,    0,    0,    0,    7,    0,    0,
      0,    2,    0,    0,    0,    0,    0,    0,    0,    3,    0xFF,
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFB};
  EXPECT_EQ((CreditReport{7, {3, -5}}.serialize()), expected);
  const std::vector<EPenny> credit = {3, -5};
  crypto::Bytes out(100, 0xAA);  // stale contents and spare capacity
  CreditReport::encode_into(7, credit, out);
  EXPECT_EQ(out, expected);
}

TEST_F(MessagesTest, CreditReportDecodeRejectsMalformedShapes) {
  const crypto::Bytes good = CreditReport{9, {1, -2, 3}}.serialize();
  CreditReport out{5, std::vector<EPenny>(64, 77)};  // reused, larger
  ASSERT_TRUE(CreditReport::decode_into(good, out));
  EXPECT_EQ(out.seq, 9u);
  EXPECT_EQ(out.credit, (std::vector<EPenny>{1, -2, 3}));

  auto rejects = [&](crypto::Bytes wire) {
    return !CreditReport::decode_into(wire, out) &&
           !CreditReport::deserialize(wire).has_value();
  };
  EXPECT_TRUE(rejects({}));
  EXPECT_TRUE(rejects(crypto::Bytes(good.begin(), good.begin() + 12)));
  crypto::Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_TRUE(rejects(trailing));
  crypto::Bytes bad_tag = good;
  bad_tag[0] = 5;
  EXPECT_TRUE(rejects(bad_tag));
  for (std::uint32_t count : {2u, 4u, 0xFFFFFFFFu}) {
    crypto::Bytes lying = good;  // count field disagrees with the body
    crypto::store_be(lying.data() + 9, count, 4);
    EXPECT_TRUE(rejects(lying)) << count;
  }
}

TEST_F(MessagesTest, TrailingBytesDetected) {
  const SnapshotRequest m{1};
  crypto::Bytes wire = m.serialize();
  wire.push_back(0xFF);
  EXPECT_FALSE(SnapshotRequest::deserialize(wire).has_value());
}

// Tentpole invariant: every serialize() reserves serialized_size() bytes up
// front, so the declared size must be exactly the bytes produced.
TEST_F(MessagesTest, SerializedSizeMatchesSerializeForEveryMessage) {
  const BuyRequest buy{1234, nnc_.next()};
  EXPECT_EQ(buy.serialized_size(), buy.serialize().size());

  const BuyReply buyreply{nnc_.next(), true};
  EXPECT_EQ(buyreply.serialized_size(), buyreply.serialize().size());

  const SellRequest sell{999, nnc_.next()};
  EXPECT_EQ(sell.serialized_size(), sell.serialize().size());

  const SellReply sellreply{nnc_.next()};
  EXPECT_EQ(sellreply.serialized_size(), sellreply.serialize().size());

  const SnapshotRequest request{42};
  EXPECT_EQ(request.serialized_size(), request.serialize().size());

  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{64}}) {
    const CreditReport report{7, std::vector<EPenny>(n, -3)};
    EXPECT_EQ(report.serialized_size(), report.serialize().size());
  }

  const crypto::Envelope env =
      crypto::ncr(keys_.pub, buy.serialize(), rng_);
  EXPECT_EQ(env.serialized_size(), env.serialize().size());
}

// The scratch-buffer envelope path must be byte-identical to the allocating
// one given the same RNG state, and must interoperate in both directions.
TEST_F(MessagesTest, SealIntoMatchesSealAndRoundTrips) {
  const BuyRequest m{500, nnc_.next()};
  const crypto::Bytes plain = m.serialize();

  Rng rng_a{4242};
  Rng rng_b{4242};
  const crypto::Bytes wire_a = seal(keys_.pub, plain, rng_a);
  crypto::Envelope scratch;
  crypto::Bytes wire_b;
  seal_into(keys_.pub, plain, rng_b, scratch, wire_b);
  EXPECT_EQ(wire_a, wire_b);

  // Scratch unseal reads what plain seal wrote (and vice versa), reusing
  // its buffers across calls.
  crypto::Envelope unseal_scratch;
  crypto::Bytes out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(unseal_into(keys_.priv, wire_a, unseal_scratch, out));
    EXPECT_EQ(out, plain);
  }
  const auto via_plain = unseal(keys_.priv, wire_b);
  ASSERT_TRUE(via_plain.has_value());
  EXPECT_EQ(*via_plain, plain);
}

TEST_F(MessagesTest, UnsealIntoRejectsTamperAndGarbage) {
  crypto::Envelope scratch;
  crypto::Bytes out;
  crypto::Bytes wire = seal(keys_.pub, SnapshotRequest{3}.serialize(), rng_);
  wire[wire.size() / 2] ^= 0x40;
  EXPECT_FALSE(unseal_into(keys_.priv, wire, scratch, out));
  EXPECT_FALSE(unseal_into(keys_.priv, {}, scratch, out));
  EXPECT_FALSE(
      unseal_into(keys_.priv, crypto::Bytes{1, 2, 3, 4}, scratch, out));
}

TEST_F(MessagesTest, SealUnsealRoundTrip) {
  const BuyRequest m{500, nnc_.next()};
  const crypto::Bytes wire = seal(keys_.pub, m.serialize(), rng_);
  const auto plain = unseal(keys_.priv, wire);
  ASSERT_TRUE(plain.has_value());
  const auto back = BuyRequest::deserialize(*plain);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->buyvalue, 500);
}

TEST_F(MessagesTest, UnsealRejectsTamperedWire) {
  const crypto::Bytes wire =
      seal(keys_.pub, SnapshotRequest{3}.serialize(), rng_);
  crypto::Bytes bad = wire;
  bad[bad.size() / 2] ^= 0x40;
  EXPECT_FALSE(unseal(keys_.priv, bad).has_value());
}

TEST_F(MessagesTest, UnsealRejectsGarbage) {
  EXPECT_FALSE(unseal(keys_.priv, {}).has_value());
  EXPECT_FALSE(unseal(keys_.priv, {1, 2, 3, 4}).has_value());
}

TEST_F(MessagesTest, SealedMessagesAreConfidential) {
  // The same plaintext seals to different wires (fresh session keys), and
  // the plaintext bytes do not appear in the ciphertext.
  const crypto::Bytes plain = BuyRequest{777, nnc_.next()}.serialize();
  const crypto::Bytes w1 = seal(keys_.pub, plain, rng_);
  const crypto::Bytes w2 = seal(keys_.pub, plain, rng_);
  EXPECT_NE(w1, w2);
}

}  // namespace
}  // namespace zmail::core
