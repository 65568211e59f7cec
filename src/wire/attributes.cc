#include "src/wire/attributes.h"

#include <algorithm>

namespace aud {

void AttrList::Set(AttrTag tag, AttrValue value) {
  for (Attr& a : attrs_) {
    if (a.tag == tag) {
      a.value = std::move(value);
      return;
    }
  }
  attrs_.push_back({tag, std::move(value)});
}

bool AttrList::Remove(AttrTag tag) {
  auto it = std::find_if(attrs_.begin(), attrs_.end(),
                         [tag](const Attr& a) { return a.tag == tag; });
  if (it == attrs_.end()) {
    return false;
  }
  attrs_.erase(it);
  return true;
}

std::optional<uint32_t> AttrList::GetU32(AttrTag tag) const {
  for (const Attr& a : attrs_) {
    if (a.tag == tag) {
      if (const auto* v = std::get_if<uint32_t>(&a.value)) {
        return *v;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<int32_t> AttrList::GetI32(AttrTag tag) const {
  for (const Attr& a : attrs_) {
    if (a.tag == tag) {
      if (const auto* v = std::get_if<int32_t>(&a.value)) {
        return *v;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<std::string> AttrList::GetString(AttrTag tag) const {
  for (const Attr& a : attrs_) {
    if (a.tag == tag) {
      if (const auto* v = std::get_if<std::string>(&a.value)) {
        return *v;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

bool AttrList::GetBool(AttrTag tag, bool default_value) const {
  auto v = GetU32(tag);
  if (!v) {
    return default_value;
  }
  return *v != 0;
}

bool AttrList::Has(AttrTag tag) const {
  return std::any_of(attrs_.begin(), attrs_.end(),
                     [tag](const Attr& a) { return a.tag == tag; });
}

void AttrList::Merge(const AttrList& other) {
  for (const Attr& a : other.attrs_) {
    Set(a.tag, a.value);
  }
}

AttrList AttrList::Decode(ByteReader* r) {
  AttrList list;
  uint16_t count = r->ReadU16();
  for (uint16_t i = 0; i < count && r->ok(); ++i) {
    auto tag = static_cast<AttrTag>(r->ReadU16());
    AttrValue value;
    switch (r->ReadU8()) {
      case kKindU32:
        value = r->ReadU32();
        break;
      case kKindI32:
        value = r->ReadI32();
        break;
      case kKindString:
        value = r->ReadString();
        break;
      default:
        // Unknown kind: its value's length is unknown, so stop parsing here.
        // The caller sees a short list and, for requests, the dispatcher
        // validates reader.ok().
        return list;
    }
    list.attrs_.push_back(Attr{tag, std::move(value)});
  }
  return list;
}

}  // namespace aud
