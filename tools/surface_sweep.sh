#!/usr/bin/env bash
# Lists the functions in src/ that no production binary reaches.
#
#   tools/surface_sweep.sh BUILD_DIR
#
# Builds the root project and the standalone perfbench/ project into
# BUILD_DIR/root and BUILD_DIR/perfbench at -O0 with one section per
# function and links them with --gc-sections, so every binary keeps exactly
# the functions it can reach.  A production binary is every bench, example
# and tool executable plus zmail_perfbench; test binaries do not count.  It
# then prints each strong text symbol of the src/ libraries that no
# production binary keeps, unless the symbol is on the oracle list below,
# and exits 1 when it printed any.  Weak symbols (inline functions and
# templates) are not counted.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mkdir -p "$1" && cd "$1" && pwd)
jobs=$(( $(nproc) < 4 ? $(nproc) : 4 ))

# Functions that only tests call, kept on purpose: each is the reference
# side of a named test.  One qualified name (no signature) per line.
oracles=(
  # The reference SMTP client of the session differential tests
  # (tests/net_smtp_test.cpp, SmtpDifferentialTest and
  # SmtpGeneratedDifferentialTest).
  zmail::net::smtp_client_script
  # The one-block XTEA reference that pins the CTR stream
  # (tests/crypto_xtea_test.cpp).
  zmail::crypto::xtea_encrypt_block
  zmail::crypto::xtea_decrypt_block
  # The journal side of the conservation check that
  # tests/core_federation_test.cpp compares with the bank's own ledger.
  zmail::core::AuditJournal::net_minted
  zmail::core::AuditJournal::settlement_volume
  # The AP quiescence check of tests/ap_runtime_test.cpp and
  # tests/core_ap_spec_test.cpp.
  zmail::ap::Scheduler::all_channels_empty
  zmail::ap::Scheduler::total_messages_in_flight
  # The adversary's hook that drops or duplicates an AP message in transit
  # (tests/ap_runtime_test.cpp, MessageReplayViaChannelInjection and
  # LostBuyReplyTimeoutRetriesAndRecovers).
  zmail::ap::Scheduler::channel
  # The mail spool that tests read to see what was delivered (e.g.
  # tests/core_isp_test.cpp); it stays with ZmailParams::record_inboxes,
  # which the repository benchmark sets (perfbench/src/ops.cpp).
  zmail::core::Isp::inbox
)

configure() {  # source dir, build dir
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG="-O0" \
    -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
  cmake --build "$2" -j "$jobs" > /dev/null
}

configure "$root" "$out/root"
configure "$root/perfbench" "$out/perfbench"

libs=$(find "$out/root/src" -name 'libzmail_*.a' | sort)
bins=$(find "$out/root/bench" "$out/root/examples" "$out/root/tools" \
         -maxdepth 1 -type f -perm -u+x | sort)
bins="$bins $out/perfbench/zmail_perfbench"

defined=$(for lib in $libs; do
            nm --defined-only "$lib" 2>/dev/null | awk '$2 == "T" {print $3}'
          done | sort -u)
kept=$(for bin in $bins; do
         nm --defined-only "$bin" | awk '$2 == "T" || $2 == "t" {print $3}'
       done | sort -u)

unkept=$(comm -23 <(echo "$defined") <(echo "$kept") | c++filt |
         sed 's/\[abi:cxx11\]//g')
for name in "${oracles[@]}"; do
  unkept=$(echo "$unkept" | grep -v -F "$name(" || true)
done

if [[ -n "$unkept" ]]; then
  echo "$unkept"
  echo "surface_sweep: $(echo "$unkept" | wc -l) function(s) in src/ have" \
       "no production caller" >&2
  exit 1
fi
echo "surface_sweep: every strong function in src/ has a production caller" >&2
