/* Snapshot images: a value graph copied once, out of the major heap,
   into a flat buffer of words; instantiating the image copies that
   buffer into the calling domain's minor heap in one bump of its
   allocation pointer, one memcpy and one relocation pass.

   Image layout. Word 0 and 1 are a [Some] block whose field is the
   root; every copied block follows, header then fields. A pointer
   between copied blocks is stored as the byte offset of its target
   from word 0, and its position is listed in [relocs]; instantiation
   adds the new base address to each. Static blocks (compiled-in
   constants and closed functions, header colour NOT_MARKABLE) are
   referenced by raw address: they never move and are never freed.
   [Object_tag] blocks (extension constructors, objects) keep their
   identity: each distinct one is stored once in the OCaml array
   [objects], and [slots] lists (position, index) pairs that
   instantiation patches from it, so the image itself holds no
   pointer into the major heap that the GC does not see.

   Everything else is copied, sharing and cycles preserved (an address
   table maps each copied block to its offset). A closure's code
   pointers and closure info are copied as raw words, which stays valid
   within one process; a pointer into a set of mutually recursive
   closures ([Infix_tag]) keeps its offset into the copied set. */

#define CAML_INTERNALS
#include <caml/version.h>
#if OCAML_VERSION_MAJOR < 5
#error "Dsim.Snapshot relies on the OCaml 5 heap layout (NOT_MARKABLE static blocks)"
#endif

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include <caml/address_class.h>
#include <caml/alloc.h>
#include <caml/custom.h>
#include <caml/domain_state.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/minor_gc.h>
#include <caml/mlvalues.h>
#include <caml/shared_heap.h>

/* The fields of the OCaml record [Snapshot.image]. */
enum { IMAGE_WORDS, IMAGE_RELOCS, IMAGE_SLOTS, IMAGE_OBJECTS, IMAGE_FIELDS };

struct vec {
  void *data;
  size_t len, cap, elt;
};

struct compile {
  struct vec words;   /* uintnat: the image */
  struct vec relocs;  /* uint32_t: positions holding an internal pointer */
  struct vec slots;   /* uint32_t pairs: position, index into objects */
  struct vec objects; /* value: distinct Object_tag blocks */
  struct vec todo;    /* uint32_t: image positions of copied blocks' first fields */
  struct vec sources; /* value: the block each todo entry was copied from */
  /* Open-addressed table from block address to its entry: a copied
     block's byte offset, or (2 * object index + 1) for an object. */
  uintnat *keys, *vals;
  size_t tcap, tcount;
  int failed;
  char error[200];
};

static int vec_push(struct compile *c, struct vec *v, const void *x)
{
  if (v->len == v->cap) {
    size_t cap = v->cap ? 2 * v->cap : 256;
    void *data = realloc(v->data, cap * v->elt);
    if (data == NULL) {
      c->failed = 1;
      snprintf(c->error, sizeof c->error, "Snapshot.compile: out of memory");
      return 0;
    }
    v->data = data;
    v->cap = cap;
  }
  memcpy((char *)v->data + v->len * v->elt, x, v->elt);
  v->len++;
  return 1;
}

static void compile_free(struct compile *c)
{
  free(c->words.data);
  free(c->relocs.data);
  free(c->slots.data);
  free(c->objects.data);
  free(c->todo.data);
  free(c->sources.data);
  free(c->keys);
  free(c->vals);
}

static size_t slot_of(struct compile *c, uintnat key)
{
  size_t mask = c->tcap - 1;
  size_t i = (size_t)(((key >> 3) * 0x9E3779B97F4A7C15ull) >> 20) & mask;
  while (c->keys[i] != 0 && c->keys[i] != key) i = (i + 1) & mask;
  return i;
}

static int table_grow(struct compile *c)
{
  uintnat *keys = c->keys, *vals = c->vals;
  size_t old = c->tcap;
  c->tcap = old ? 2 * old : 1024;
  c->keys = calloc(c->tcap, sizeof(uintnat));
  c->vals = calloc(c->tcap, sizeof(uintnat));
  if (c->keys == NULL || c->vals == NULL) {
    free(keys);
    free(vals);
    c->failed = 1;
    snprintf(c->error, sizeof c->error, "Snapshot.compile: out of memory");
    return 0;
  }
  for (size_t i = 0; i < old; i++)
    if (keys[i] != 0) {
      size_t j = slot_of(c, keys[i]);
      c->keys[j] = keys[i];
      c->vals[j] = vals[i];
    }
  free(keys);
  free(vals);
  return 1;
}

/* The entry for [key], or 0 if it has none (no entry is 0: a block's
   byte offset is at least 16, past the [Some] block). */
static uintnat table_find(struct compile *c, uintnat key)
{
  if (c->tcap == 0) return 0;
  size_t i = slot_of(c, key);
  return c->keys[i] == key ? c->vals[i] : 0;
}

static int table_add(struct compile *c, uintnat key, uintnat val)
{
  if (2 * (c->tcount + 1) > c->tcap && !table_grow(c)) return 0;
  size_t i = slot_of(c, key);
  c->keys[i] = key;
  c->vals[i] = val;
  c->tcount++;
  return 1;
}

static int refuse(struct compile *c, const char *what, value b, header_t hd)
{
  c->failed = 1;
  snprintf(c->error, sizeof c->error,
           "Snapshot.compile: %s (tag %u, %lu words, at %p)", what,
           (unsigned)Tag_hd(hd), (unsigned long)Wosize_hd(hd), (void *)b);
  return 0;
}

#define WORDS(c) ((uintnat *)(c)->words.data)

/* Stores in image word [pos] the image's reference to [v], copying
   [v]'s block on first sight. */
static int refer(struct compile *c, value v, size_t pos)
{
  if (Is_long(v)) {
    WORDS(c)[pos] = v;
    return 1;
  }
  header_t hd = Hd_val(v);
  uintnat infix = 0;
  value b = v;
  if (Tag_hd(hd) == Infix_tag) {
    infix = Infix_offset_hd(hd);
    b = v - infix;
    hd = Hd_val(b);
  }
  if (Has_status_hd(hd, NOT_MARKABLE)) {
    WORDS(c)[pos] = v;
    return 1;
  }
  if (Is_young(b)) return refuse(c, "young block; run Gc.minor () first", b, hd);
  uintnat entry = table_find(c, (uintnat)b);
  tag_t tag = Tag_hd(hd);
  if (entry == 0) {
    switch (tag) {
    case Custom_tag: {
      char what[96];
      snprintf(what, sizeof what, "custom block \"%s\" cannot be copied",
               Custom_ops_val(b)->identifier);
      return refuse(c, what, b, hd);
    }
    case Cont_tag:
      return refuse(c, "continuation cannot be copied", b, hd);
    case Abstract_tag:
      return refuse(c, "abstract block cannot be copied", b, hd);
    }
    if (Wosize_hd(hd) == 0) return refuse(c, "empty heap block", b, hd);
    if (tag == Object_tag) {
      entry = 2 * c->objects.len + 1;
      if (!vec_push(c, &c->objects, &b)) return 0;
    } else {
      /* Reserve the copy: its header now, its fields when the block is
         taken off the todo list. */
      size_t at = c->words.len;
      header_t clean = Cleanhd_hd(hd);
      uintnat zero = 0;
      if (at + 1 + Wosize_hd(hd) > UINT32_MAX)
        return refuse(c, "image over 4 G words", b, hd);
      if (!vec_push(c, &c->words, &clean)) return 0;
      for (mlsize_t i = 0; i < Wosize_hd(hd); i++)
        if (!vec_push(c, &c->words, &zero)) return 0;
      uint32_t first = (uint32_t)(at + 1);
      if (!vec_push(c, &c->todo, &first) || !vec_push(c, &c->sources, &b)) return 0;
      entry = (uintnat)first * sizeof(value);
    }
    if (!table_add(c, (uintnat)b, entry)) return 0;
  }
  uint32_t p = (uint32_t)pos;
  if (entry & 1) {
    uint32_t slot[2] = {p, (uint32_t)(entry >> 1)};
    WORDS(c)[pos] = Val_unit;
    return vec_push(c, &c->slots, &slot[0]) && vec_push(c, &c->slots, &slot[1]);
  }
  WORDS(c)[pos] = entry + infix;
  return vec_push(c, &c->relocs, &p);
}

/* Fills the fields of the copy of [src], whose first field is image
   word [first]. */
static int fill(struct compile *c, value src, size_t first)
{
  header_t hd = Hd_val(src);
  mlsize_t n = Wosize_hd(hd);
  tag_t tag = Tag_hd(hd);
  mlsize_t scan = 0;
  if (tag >= No_scan_tag)
    scan = n;
  else if (tag == Closure_tag)
    scan = Start_env_closinfo(Closinfo_val(src));
  for (mlsize_t i = 0; i < scan && i < n; i++) WORDS(c)[first + i] = Field(src, i);
  for (mlsize_t i = scan; i < n; i++)
    if (!refer(c, Field(src, i), first + i)) return 0;
  return 1;
}

static value image_bytes(struct vec *v)
{
  value b = caml_alloc_string(v->len * v->elt);
  if (v->len > 0) memcpy(Bytes_val(b), v->data, v->len * v->elt);
  return b;
}

CAMLprim value dsim_snapshot_compile(value root)
{
  CAMLparam1(root);
  CAMLlocal3(image, field, objects);
  struct compile c;
  memset(&c, 0, sizeof c);
  c.words.elt = sizeof(uintnat);
  c.relocs.elt = sizeof(uint32_t);
  c.slots.elt = sizeof(uint32_t);
  c.objects.elt = sizeof(value);
  c.todo.elt = sizeof(uint32_t);
  c.sources.elt = sizeof(value);
  header_t some = Make_header(1, 0, 0);
  uintnat zero = 0;
  int ok = vec_push(&c, &c.words, &some) && vec_push(&c, &c.words, &zero) && refer(&c, root, 1);
  while (ok && c.todo.len > 0) {
    c.todo.len--;
    c.sources.len--;
    ok = fill(&c, ((value *)c.sources.data)[c.sources.len],
              ((uint32_t *)c.todo.data)[c.todo.len]);
  }
  if (!ok) {
    char error[sizeof c.error];
    memcpy(error, c.error, sizeof error);
    compile_free(&c);
    caml_failwith(error);
  }
  /* Free the walk's tables before allocating: the collections the
     allocations below may run move no major block, and every source
     block left is reachable from [root]. */
  free(c.todo.data);
  free(c.sources.data);
  free(c.keys);
  free(c.vals);
  c.todo.data = c.sources.data = NULL;
  c.keys = c.vals = NULL;
  image = caml_alloc_small(IMAGE_FIELDS, 0);
  for (int i = 0; i < IMAGE_FIELDS; i++) Field(image, i) = Val_unit;
  field = image_bytes(&c.words);
  caml_modify(&Field(image, IMAGE_WORDS), field);
  field = image_bytes(&c.relocs);
  caml_modify(&Field(image, IMAGE_RELOCS), field);
  field = image_bytes(&c.slots);
  caml_modify(&Field(image, IMAGE_SLOTS), field);
  objects = c.objects.len == 0 ? Atom(0) : caml_alloc(c.objects.len, 0);
  for (size_t i = 0; i < c.objects.len; i++)
    caml_modify(&Field(objects, i), ((value *)c.objects.data)[i]);
  caml_modify(&Field(image, IMAGE_OBJECTS), objects);
  compile_free(&c);
  CAMLreturn(image);
}

CAMLprim value dsim_snapshot_instantiate(value image)
{
  CAMLparam1(image);
  mlsize_t n = caml_string_length(Field(image, IMAGE_WORDS)) / sizeof(value);
  caml_domain_state *d = Caml_state;
  if (d->young_ptr - d->young_trigger < (intnat)n) {
    caml_minor_collection();
    d = Caml_state;
    if (d->young_ptr - d->young_trigger < (intnat)n) CAMLreturn(Val_none);
  }
  /* From the bump to the return nothing allocates, so no collection
     can see the region before every word of it is a valid value. */
  value *base = d->young_ptr - n;
  d->young_ptr = base;
  memcpy(base, Bytes_val(Field(image, IMAGE_WORDS)), n * sizeof(value));
  value relocs = Field(image, IMAGE_RELOCS);
  const uint32_t *r = (const uint32_t *)Bytes_val(relocs);
  size_t nr = caml_string_length(relocs) / sizeof(uint32_t);
  for (size_t i = 0; i < nr; i++) base[r[i]] += (uintnat)base;
  value slots = Field(image, IMAGE_SLOTS);
  value objects = Field(image, IMAGE_OBJECTS);
  const uint32_t *s = (const uint32_t *)Bytes_val(slots);
  size_t ns = caml_string_length(slots) / (2 * sizeof(uint32_t));
  for (size_t i = 0; i < ns; i++) base[s[2 * i]] = Field(objects, s[2 * i + 1]);
  CAMLreturn((value)(base + 1));
}
