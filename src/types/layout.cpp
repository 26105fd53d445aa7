#include "types/layout.hpp"

#include <algorithm>
#include <stdexcept>

namespace srpc {

namespace {
std::uint64_t align_up(std::uint64_t offset, std::uint32_t align) noexcept {
  return (offset + align - 1) / align * align;
}

// Appends `run` moved `base` bytes on, extending the last run instead when
// the two leaf sequences form one arithmetic progression of equal leaves.
void append_run(std::vector<LayoutRun>& runs, LayoutRun run, std::uint64_t base) {
  run.offset += base;
  if (!runs.empty()) {
    LayoutRun& last = runs.back();
    const std::uint64_t stride = last.count > 1  ? last.stride
                                 : run.count > 1 ? run.stride
                                                 : run.offset - last.offset;
    if (last.pointee == run.pointee && last.scalar == run.scalar &&
        (run.count == 1 || run.stride == stride) &&
        run.offset == last.offset + last.count * stride) {
      last.stride = stride;
      last.count += run.count;
      return;
    }
  }
  runs.push_back(run);
}
}  // namespace

Result<const Layout*> LayoutEngine::layout_of(const ArchModel& arch, TypeId type) const {
  const auto key = std::make_pair(key_of(arch), type);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return &it->second;
  }
  std::vector<TypeId> in_progress;
  auto computed = compute(arch, type, in_progress);
  if (!computed) return computed.status();
  Layout& plan = computed.value();
  for (const LayoutRun& run : plan.runs) {
    if (!run.is_pointer()) {
      plan.scalar_wire_bytes += run.count * (scalar_size(run.scalar) <= 4 ? 4 : 8);
      continue;
    }
    plan.pointer_count += run.count;
    for (std::uint64_t i = 0; i < run.count; ++i) {
      plan.pointer_ranges.push_back(ByteRange{
          static_cast<std::uint32_t>(run.offset + i * run.stride), arch.pointer_size});
    }
  }
  merge_ranges(plan.pointer_ranges);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, _] = cache_.try_emplace(key, std::move(plan));
  return &it->second;
}

std::uint64_t LayoutEngine::size_of(const ArchModel& arch, TypeId type) const {
  auto layout = layout_of(arch, type);
  if (!layout) {
    throw std::logic_error("size_of(" + std::to_string(type) +
                           "): " + layout.status().to_string());
  }
  return layout.value()->size;
}

Result<Layout> LayoutEngine::compute(const ArchModel& arch, TypeId type,
                                     std::vector<TypeId>& in_progress) const {
  if (std::find(in_progress.begin(), in_progress.end(), type) != in_progress.end()) {
    return invalid_argument("type contains itself by value (use a pointer): id " +
                            std::to_string(type));
  }
  auto desc_or = registry_.find(type);
  if (!desc_or) return desc_or.status();
  const TypeDescriptor& desc = *desc_or.value();

  Layout out;
  switch (desc.kind()) {
    case TypeKind::kScalar: {
      const std::uint32_t size = scalar_size(desc.scalar());
      out.size = size;
      out.align = std::min(size, arch.max_align);
      out.runs.push_back(LayoutRun{.scalar = desc.scalar()});
      return out;
    }
    case TypeKind::kPointer: {
      out.size = arch.pointer_size;
      out.align = std::min(arch.pointer_size, arch.max_align);
      out.runs.push_back(LayoutRun{.pointee = desc.pointee()});
      return out;
    }
    case TypeKind::kArray: {
      in_progress.push_back(type);
      auto elem = compute(arch, desc.element(), in_progress);
      in_progress.pop_back();
      if (!elem) return elem.status();
      out.align = elem.value().align;
      out.size = elem.value().size * desc.count();
      for (std::uint32_t i = 0; i < desc.count(); ++i) {
        for (const LayoutRun& run : elem.value().runs) {
          append_run(out.runs, run, i * elem.value().size);
        }
      }
      return out;
    }
    case TypeKind::kStruct: {
      if (desc.is_incomplete()) {
        return failed_precondition("layout of incomplete struct: " + desc.name());
      }
      in_progress.push_back(type);
      std::uint64_t offset = 0;
      std::uint32_t align = 1;
      out.field_offsets.reserve(desc.fields().size());
      for (const auto& field : desc.fields()) {
        auto fl = compute(arch, field.type, in_progress);
        if (!fl) {
          in_progress.pop_back();
          return fl.status();
        }
        offset = align_up(offset, fl.value().align);
        out.field_offsets.push_back(offset);
        for (const LayoutRun& run : fl.value().runs) append_run(out.runs, run, offset);
        offset += fl.value().size;
        align = std::max(align, fl.value().align);
      }
      in_progress.pop_back();
      out.align = align;
      out.size = align_up(offset, align);
      return out;
    }
  }
  return internal_error("unreachable type kind");
}

}  // namespace srpc
