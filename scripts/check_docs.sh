#!/usr/bin/env bash
# Docs gate, run by CI (.github/workflows/ci.yml) and by hand:
#   1. every relative markdown link in README.md / docs/*.md resolves to a
#      file that exists,
#   2. the message-type table in docs/protocol.md matches the MsgType enum
#      in src/service/wire.hpp, name for name and value for value (new
#      MsgType entries — LoadRegistry etc. — fail the gate until the table
#      documents them), and the enum reuses no number that the doc's
#      "Retired type numbers:" line lists,
#   3. the protocol version in the doc title matches kProtocolVersion,
#   4. the paper registry fingerprint quoted in docs/protocol.md matches
#      the value pinned in tests/registry_test.cpp,
#   5. docs/qor-store.md documents every store header version the code
#      defines (kStoreVersion* in src/core/qor_store.cpp),
#   6. every failpoint site declared in src/ (FLOWGEN_FAILPOINT name
#      literals) is listed in docs/fault-model.md.
# Exits non-zero with one line per problem, so the docs cannot drift from
# the code they describe without failing the build.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# ----------------------------------------------------- 1. relative links --
for md in README.md docs/*.md; do
  dir=$(dirname "$md")
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://* | https://* | mailto:* | '#'*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      echo "check_docs: broken link in $md -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
done

# ------------------------------------- 2. message-type table <-> wire.hpp --
enum_pairs=$(sed -n '/enum class MsgType/,/};/p' src/service/wire.hpp \
  | grep -oE 'k[A-Za-z]+ *= *[0-9]+' \
  | sed -E 's/^k([A-Za-z]+) *= *([0-9]+)$/\2 \1/' | sort -n)
doc_pairs=$(grep -E '^\|[[:space:]]*[0-9]+[[:space:]]*\|' docs/protocol.md \
  | awk -F'|' '{gsub(/[[:space:]]/, "", $2); gsub(/[[:space:]]/, "", $3);
                print $2, $3}' | sort -n)
if [ "$enum_pairs" != "$doc_pairs" ]; then
  echo "check_docs: docs/protocol.md message-type table disagrees with" \
       "the MsgType enum in src/service/wire.hpp:"
  diff <(echo "$enum_pairs") <(echo "$doc_pairs") \
    | sed 's/^</  wire.hpp: /; s/^>/  protocol.md: /' | grep -v '^---' || true
  fail=1
fi
retired=$(grep -m1 '^Retired type numbers:' docs/protocol.md \
  | grep -oE '[0-9]+' || true)
for n in $retired; do
  if echo "$enum_pairs" | grep -qE "^${n} "; then
    echo "check_docs: MsgType reuses retired type number ${n}" \
         "(docs/protocol.md, \"Retired type numbers\")"
    fail=1
  fi
done

# --------------------------------------------- 3. protocol version match --
code_version=$(grep -oE 'kProtocolVersion = [0-9]+' src/service/wire.hpp \
  | grep -oE '[0-9]+')
if ! head -1 docs/protocol.md | grep -q "(version ${code_version})"; then
  echo "check_docs: docs/protocol.md title does not say" \
       "(version ${code_version}) — kProtocolVersion changed without the doc"
  fail=1
fi

# ------------------------------ 4. paper registry fingerprint in sync --
pinned_fp=$(grep -oE '"[0-9a-f]{32}"' tests/registry_test.cpp \
  | head -1 | tr -d '"')
if [ -z "$pinned_fp" ]; then
  echo "check_docs: no pinned registry fingerprint in tests/registry_test.cpp"
  fail=1
elif ! grep -q "$pinned_fp" docs/protocol.md; then
  echo "check_docs: docs/protocol.md does not quote the paper registry" \
       "fingerprint ${pinned_fp} pinned in tests/registry_test.cpp"
  fail=1
fi

# --------------------------------- 5. store header versions documented --
for v in $(grep -oE 'kStoreVersion[A-Za-z]* = [0-9]+' src/core/qor_store.cpp \
             | grep -oE '[0-9]+'); do
  if ! grep -qE "version +1 \(paper registry\) or 2|u8 +version +${v}" \
         docs/qor-store.md && \
     ! grep -qE "version.*\b${v}\b" docs/qor-store.md; then
    echo "check_docs: docs/qor-store.md does not document store header" \
         "version ${v}"
    fail=1
  fi
done

# ------------------------------- 6. failpoint sites documented by name --
# Literal names only (FLOWGEN_FAILPOINT("some.name")); the transport layer
# passes its names through an adapter, so grep the call sites of that too.
sites=$(grep -rzoE \
    '(FLOWGEN_FAILPOINT(_KEYED)?|transport_failpoint)\([[:space:]]*"[a-z._]+"' \
    src \
  | tr '\0' '\n' | grep -oE '"[a-z._]+"' | tr -d '"' | sort -u)
for site in $sites; do
  if ! grep -q "\`$site\`" docs/fault-model.md; then
    echo "check_docs: failpoint site $site is not listed in" \
         "docs/fault-model.md"
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "check_docs: OK (links, protocol table/version, registry fingerprint," \
       "store versions, failpoint sites in sync)"
fi
exit "$fail"
