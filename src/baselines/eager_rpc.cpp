#include "baselines/eager_rpc.hpp"

#include <unordered_set>

#include "common/logging.hpp"

namespace srpc::eager {

namespace {

// rpcgen-style pointer field: 4-byte presence flag + inline pointee value.
class InlinePointerEncoder final : public PointerFieldCodec {
 public:
  explicit InlinePointerEncoder(Runtime& rt) : rt_(rt) {}

  Status encode(xdr::Encoder& enc, std::uint64_t ordinary, TypeId pointee) override {
    if (ordinary == 0) {
      enc.put_bool(false);
      return Status::ok();
    }
    enc.put_bool(true);
    if (!path_.insert(ordinary).second) {
      return invalid_argument(
          "eager marshalling cannot encode cyclic structures (rpcgen semantics)");
    }
    Status s = rt_.codec().encode(rt_.arch(), pointee,
                                  reinterpret_cast<const void*>(ordinary), enc, *this);
    path_.erase(ordinary);
    return s;
  }

  Result<std::uint64_t> decode(xdr::Decoder&, TypeId) override {
    return internal_error("InlinePointerEncoder used for decoding");
  }

 private:
  Runtime& rt_;
  std::unordered_set<std::uint64_t> path_;  // DFS path: cycle detection only
};

class InlinePointerDecoder final : public PointerFieldCodec {
 public:
  explicit InlinePointerDecoder(Runtime& rt) : rt_(rt) {}

  Status encode(xdr::Encoder&, std::uint64_t, TypeId) override {
    return internal_error("InlinePointerDecoder used for encoding");
  }

  Result<std::uint64_t> decode(xdr::Decoder& dec, TypeId pointee) override {
    auto present = dec.get_bool();
    if (!present) return present.status();
    if (!present.value()) return std::uint64_t{0};
    auto copy = rt_.heap().allocate(pointee, 1);
    if (!copy) return copy.status();
    SRPC_RETURN_IF_ERROR(
        rt_.codec().decode(rt_.arch(), pointee, copy.value(), dec, *this));
    return reinterpret_cast<std::uint64_t>(copy.value());
  }

 private:
  Runtime& rt_;
};

// Recursively frees a decoded local copy (acyclic by construction).
Status free_closure(Runtime& rt, TypeId type, void* root) {
  if (root == nullptr) return Status::ok();
  auto plan = rt.layouts().layout_of(rt.arch(), type);
  if (!plan) return plan.status();
  std::vector<std::pair<TypeId, void*>> children;
  plan.value()->for_each_pointer(rt.arch(), root, [&](std::uint64_t target, TypeId to) {
    children.emplace_back(to, reinterpret_cast<void*>(target));
  });
  for (auto& [pointee, child] : children) {
    SRPC_RETURN_IF_ERROR(free_closure(rt, pointee, child));
  }
  return rt.heap().free(root);
}

}  // namespace

Status encode_inline(Runtime& rt, TypeId type, const void* src, xdr::Encoder& enc) {
  InlinePointerEncoder pointer_codec(rt);
  return rt.codec().encode(rt.arch(), type, src, enc, pointer_codec);
}

Result<void*> decode_inline(Runtime& rt, TypeId type, xdr::Decoder& dec) {
  InlinePointerDecoder pointer_codec(rt);
  auto root = pointer_codec.decode(dec, type);
  if (!root) return root.status();
  return reinterpret_cast<void*>(static_cast<std::uintptr_t>(root.value()));
}

Status bind(AddressSpace& space, const std::string& name, TypeId root_type,
            Handler handler) {
  RawHandler raw = [root_type, handler = std::move(handler)](
                       CallContext& ctx, ByteBuffer& in, ByteBuffer& out,
                       std::vector<std::uint64_t>&) -> Status {
    xdr::Decoder dec(in);
    InlinePointerDecoder pointer_codec(ctx.runtime);
    auto root = pointer_codec.decode(dec, root_type);
    if (!root) return root.status();
    auto a = dec.get_i64();
    if (!a) return a.status();
    auto b = dec.get_i64();
    if (!b) return b.status();

    void* root_copy = reinterpret_cast<void*>(root.value());
    auto result = handler(ctx, root_copy, a.value(), b.value());

    // The local copy is transient (the eager method shares nothing).
    Status freed = free_closure(ctx.runtime, root_type, root_copy);
    if (!freed.is_ok()) {
      SRPC_WARN << "eager copy cleanup: " << freed.to_string();
    }
    if (!result) return result.status();
    xdr::Encoder enc(out);
    enc.put_i64(result.value());
    return Status::ok();
  };
  return space.run([&](Runtime& rt) { return rt.services().bind(name, std::move(raw)); });
}

Result<std::int64_t> call(Runtime& rt, SpaceId target, const std::string& name,
                          TypeId root_type, const void* root, std::int64_t a,
                          std::int64_t b) {
  ByteBuffer args;
  xdr::Encoder enc(args);
  InlinePointerEncoder pointer_codec(rt);
  SRPC_RETURN_IF_ERROR(pointer_codec.encode(
      enc, reinterpret_cast<std::uint64_t>(root), root_type));
  enc.put_i64(a);
  enc.put_i64(b);
  auto reply = rt.call_raw(target, name, std::move(args), {});
  if (!reply) return reply.status();
  xdr::Decoder dec(reply.value());
  auto result = dec.get_i64();
  if (!result) return result.status();
  return result.value();
}

}  // namespace srpc::eager
