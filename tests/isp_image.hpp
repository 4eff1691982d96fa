// The encoded snapshot image of an ISP's state: the bytes a checkpoint
// writes for it, up to the header's WAL position and clock.  Two ISPs with
// equal images hold the same settlement state, so tests compare images
// where they would compare the state itself.
#pragma once

#include "core/isp.hpp"
#include "store/snapshot.hpp"

namespace zmail::core {

inline crypto::Bytes isp_image(const Isp& isp) {
  store::SnapshotData snap;
  snap.meta.features = store::kFeatureColumnarUserState;
  crypto::Bytes scalars;
  isp.serialize_sections(scalars, snap.sections);
  return store::encode_snapshot(snap);
}

}  // namespace zmail::core
